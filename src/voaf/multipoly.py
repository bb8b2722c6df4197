"""Sparse multivariate polynomials over Q.

A polynomial is a dict mapping exponent tuples (one slot per variable in
VARS order) to nonzero Fractions.  The variable set is fixed; polynomials
that do not mention a variable simply have exponent 0 in its slot.

A MultiPoly is an immutable value: every operation returns a new one, and
callers must not mutate its `terms`.  That lets a polynomial keep the
integer form that `evaluate` reads, built on its first evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, getitem
from typing import Dict, Optional, Tuple

VARS: Tuple[str, ...] = ("x", "y", "z", "s", "t", "u")
NVARS = len(VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

Expo = Tuple[int, ...]
Terms = Dict[Expo, Fraction]

_ZERO_EXPO: Expo = (0,) * NVARS


class MultiPoly:
    __slots__ = ("terms", "_cleared")

    def __init__(self, terms: Optional[Terms] = None):
        out: Terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    out[tuple(e)] = c
        object.__setattr__(self, "terms", out)
        object.__setattr__(self, "_cleared", None)

    @staticmethod
    def _make(terms: Terms) -> "MultiPoly":
        """The polynomial with these terms, taken as they are: tuple
        exponents and nonzero Fractions, never mutated afterwards."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_cleared", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly._make({_ZERO_EXPO: c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        e = [0] * NVARS
        e[_VAR_INDEX[name]] = 1
        return MultiPoly._make({tuple(e): Fraction(1)})

    # ------------------------------------------------------------------

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return MultiPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({e: -c for e, c in self.terms.items()})

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
        out: Terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return MultiPoly._make({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return MultiPoly.const(1) if out is None else out

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ------------------------------------------------------------------

    def _clear(self):
        """The cleared form that evaluate reads: the (name, degree) of each
        variable the polynomial uses, the common denominator D of the
        coefficients, and one row (c*D, exponents of the used variables) per
        term, with c*D an int."""
        terms = self.terms
        degs = list(map(max, zip(*terms))) if terms else []
        used = [i for i, d in enumerate(degs) if d]
        den = math.lcm(*[c.denominator for c in terms.values()])
        rows = tuple(
            (c.numerator * (den // c.denominator),) + tuple(e[i] for i in used)
            for e, c in terms.items()
        )
        return tuple((VARS[i], degs[i]) for i in used), den, rows

    def evaluate(self, assign: Dict[str, object]):
        """Evaluate exactly, on integers where the point is rational.

        The first call builds the cleared form (_clear) and keeps it.  With D
        the common denominator of the coefficients and v = n/m the value of
        a variable of degree d, the term c * v^k becomes the integer
        (c*D) * n^k * m^(d-k); the sum over all terms is divided by
        D * prod(m^d) once.  A value that is not an int or a Fraction (a
        Scalar in Q(sqrt(s))) enters the same loop as n = v, m = 1.  The
        power tables come from the point (Point.tables), so polynomials
        evaluated at one Point share them.  Every variable occurring in the
        polynomial must be assigned; other assigned variables are ignored.
        The result is a Fraction unless a non-rational value occurs with
        positive degree.
        """
        form = self._cleared
        if form is None:
            form = self._clear()
            object.__setattr__(self, "_cleared", form)
        variables, den, rows = form
        if not rows:
            return Fraction(0)
        point = assign if type(assign) is Point else Point(assign)
        tables, scale = point.tables(variables)
        # fusion rows use x, y and z (99.5% of the calls on a table of
        # twelve generic charges): one unpacking per term, no call per term
        if len(tables) == 3:
            t0, t1, t2 = tables
            acc = sum([c * t0[i] * t1[j] * t2[k] for c, i, j, k in rows])
        else:
            acc = sum([c * math.prod(map(getitem, tables, e)) for c, *e in rows])
        den *= scale
        if type(acc) is int:
            return Fraction(acc, den)
        return acc * Fraction(1, den)

    def subs(self, assign: Dict[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials (or constants) for variables.

        The powers of each substituted value are built once, up to the
        variable's degree; unsubstituted variables stay in the monomial.  A
        constant's power scales the coefficient, a polynomial's multiplies
        the term.
        """
        terms = self.terms
        scales, tables = {}, {}
        for i, d in enumerate(map(max, zip(*terms)) if terms else ()):
            if d and VARS[i] in assign:
                p = assign[VARS[i]]
                if not isinstance(p, MultiPoly):
                    p = MultiPoly.const(p)
                if not p.terms.keys() - {_ZERO_EXPO}:
                    c = p.terms.get(_ZERO_EXPO, Fraction(0))
                    scales[i] = [c**k for k in range(d + 1)]
                    continue
                powers = [None, p]
                while len(powers) <= d:
                    powers.append(powers[-1] * p)
                tables[i] = powers
        acc: Terms = {}
        for e, c in terms.items():
            for i, powers in scales.items():
                c *= powers[e[i]]
            if not c:
                continue
            rest = tuple(0 if i in scales or i in tables else k for i, k in enumerate(e))
            term = MultiPoly._make({rest: c})
            for i, powers in tables.items():
                if e[i]:
                    term = term * powers[e[i]]
            for te, tc in term.terms.items():
                acc[te] = acc.get(te, 0) + tc
        return MultiPoly._make({e: c for e, c in acc.items() if c})

    # ------------------------------------------------------------------

    def try_divide(self, divisor: "MultiPoly") -> Optional["MultiPoly"]:
        """Return self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError
        rem = self
        lead_e, lead_c = max(divisor.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        quot = MultiPoly()
        while rem.terms:
            e, c = max(rem.terms.items(), key=lambda t: (sum(t[0]), t[0]))
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                return None
            qc = c / lead_c
            qterm = MultiPoly._make({diff: qc})
            quot = quot + qterm
            rem = rem - qterm * divisor
        return quot

    def proportionality(self, other: "MultiPoly") -> Optional[Fraction]:
        """Return c with self == c*other, or None if not proportional."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        if self.is_zero():
            return None
        e, c = next(iter(other.terms.items()))
        mine = self.terms.get(e)
        if mine is None:
            return None
        ratio = mine / c
        return ratio if self == MultiPoly.const(ratio) * other else None

    # ------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-k for k in t[0])))
        parts = []
        for e, c in items:
            mono = " ".join(
                VARS[i] if k == 1 else "%s^%d" % (VARS[i], k)
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = "-" + mono
            else:
                piece = "%s %s" % (c, mono)
            parts.append(piece)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return "MultiPoly(%s)" % self


class Point(dict):
    """The values of the variables, to evaluate polynomials at.

    A point keeps the power tables that evaluate reads, one set per
    signature of used variables and degrees, so every polynomial evaluated
    at the same Point shares them.  Its values must not change once it has
    been evaluated at.
    """

    __slots__ = ("_tables",)

    def __init__(self, values: Dict[str, object]):
        super().__init__(values)
        self._tables = {}

    def tables(self, variables: Tuple[Tuple[str, int], ...]):
        """For each (name, degree d) of `variables`, the table of
        n^k * m^(d-k), k = 0..d, where the value is n/m (n = v, m = 1 for a
        value that is not rational), and the product of the m^d."""
        got = self._tables.get(variables)
        if got is not None:
            return got
        tables, scale = [], 1
        for name, d in variables:
            try:
                v = self[name]
            except KeyError:
                missing = [u for u, _ in variables if u not in self]
                raise ValueError("unassigned variables %s" % missing) from None
            if isinstance(v, (int, Fraction)):
                n, m = v.numerator, v.denominator
                table = [m**d]
                for _ in range(d):
                    table.append(table[-1] // m * n)
                scale *= table[0]
            else:
                table = [1]
                for _ in range(d):
                    table.append(table[-1] * v)
            tables.append(table)
        got = self._tables[variables] = (tuple(tables), scale)
        return got
