"""Fock spaces for the rank-one Heisenberg algebra.

States are linear combinations of monomials h(-n1)...h(-nk)|top> over a
sector.  Untwisted sectors have positive integer mode depths and a top
vector e^lam with h(0)-eigenvalue lam (lam = 0 gives the vacuum module);
twisted sectors have positive half-odd-integer depths and conformal-weight
offset 1/16.

A monomial is keyed by its doubled depths: the tuple of ints 2*n1 >= ...
>= 2*nk, even in untwisted sectors and odd in the twisted one.  Doubling is
monotone, so keys sort as the depth partitions do.  Natural depths (ints or
Fractions) are converted only where they enter or leave: FockVector(...),
basis, apply_mode's mode index, degrees, printing, and the
partitions returned by partitions_of and basis_at_degree.  Coefficients are
Scalars: in a charged sector, lam**2 = s for a rational s, they lie in
Q(sqrt(s)), and those with a lam part carry modulus s; in the vacuum and
twisted sectors they are rational.

The Heisenberg rule `mode_term` gives one mode's integer factor on one
monomial.  apply_mode scales each coefficient's ints by it, and virasoro.L
reads the coefficients once as integers over one common denominator
(`numerators`), so both build each output coefficient once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .scalars import Scalar, rational

Partition = Tuple[Fraction, ...]  # natural depths, decreasing
Key = Tuple[int, ...]  # doubled depths, decreasing


def double(x) -> int:
    """2*x as an int, for a natural depth, mode index or degree x."""
    if type(x) is int:
        return 2 * x
    if type(x) is not Fraction:
        x = rational(x)
    k, r = divmod(2 * x.numerator, x.denominator)
    if r:
        raise ValueError("%s is not a multiple of 1/2" % x)
    return k


def halve(k: int):
    """The natural value k/2 of a doubled int: an int when k is even."""
    return k >> 1 if k & 1 == 0 else Fraction(k, 2)


SValue = Optional[Fraction]  # the squared charge lam**2 of a charged sector


class Sector(NamedTuple):
    twisted: bool
    s: SValue = None  # None (lam = 0) or the rational lam**2

    @staticmethod
    def untwisted(s: SValue = None) -> "Sector":
        return Sector(False, None if s is None else rational(s))

    @staticmethod
    def twisted_sector() -> "Sector":
        return Sector(True, None)

    def charged(self) -> bool:
        """Whether h(0) acts on the top vector as a nonzero lam."""
        return not self.twisted and self.s is not None

    def lam_scalar(self) -> Scalar:
        """h(0) eigenvalue on the top vector."""
        return Scalar.lam(self.s) if self.charged() else Scalar.zero()

    def depth_parity(self) -> int:
        """Parity of every doubled depth and nonzero mode index: 1 in the
        twisted sector (half-odd depths), 0 in untwisted ones."""
        return 1 if self.twisted else 0

    def depth_ok(self, d) -> bool:
        try:
            k = double(d)
        except ValueError:
            return False
        return k > 0 and k % 2 == self.depth_parity()

    def weight_offset_rat(self) -> Fraction:
        """Conformal weight of the top vector."""
        if self.twisted:
            return Fraction(1, 16)
        if self.s is None:
            return Fraction(0)
        return self.s / 2

    def __str__(self):
        if self.twisted:
            return "twisted"
        if self.s is None:
            return "untwisted(lam=0)"
        return "untwisted(lam^2=%s)" % self.s


def _key(sector: Sector, parts: Iterable) -> Key:
    """The key of a natural depth partition, checked against the sector."""
    key = []
    for d in parts:
        if not sector.depth_ok(d):
            raise ValueError("depth %s not allowed in sector %s" % (d, sector))
        key.append(double(d))
    return tuple(sorted(key, reverse=True))


class FockVector:
    """A finite combination of monomials: `terms` maps keys (doubled depth
    tuples, see the module docstring) to nonzero Scalars."""

    __slots__ = ("sector", "terms")

    def __init__(self, sector: Sector, terms: Optional[Dict[Tuple, object]] = None):
        """`terms` maps natural depth partitions to coefficients."""
        self.sector = sector
        self.terms: Dict[Key, Scalar] = {}
        if terms:
            for part, c in terms.items():
                c = Scalar.of(c)
                if not c.is_zero():
                    self.terms[_key(sector, part)] = c

    # ------------------------------------------------------------------

    @staticmethod
    def zero(sector: Sector) -> "FockVector":
        return FockVector(sector)

    @staticmethod
    def basis(sector: Sector, parts: Iterable = (), coeff=1) -> "FockVector":
        return FockVector(sector, {tuple(parts): coeff})

    # ------------------------------------------------------------------

    def _require_same(self, other: "FockVector"):
        if self.sector != other.sector:
            raise ValueError("sector mismatch: %s vs %s" % (self.sector, other.sector))

    def __add__(self, other: "FockVector") -> "FockVector":
        self._require_same(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            v = out.get(p)
            v = c if v is None else v + c
            if v.is_zero():
                out.pop(p, None)
            else:
                out[p] = v
        res = FockVector(self.sector)
        res.terms = out
        return res

    def __neg__(self) -> "FockVector":
        res = FockVector(self.sector)
        res.terms = {p: -c for p, c in self.terms.items()}
        return res

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def scale(self, c) -> "FockVector":
        c = Scalar.of(c)
        res = FockVector(self.sector)
        if not c.a1:
            f, g = c.a0, c.d
            if f:
                res.terms = {
                    p: Scalar(v.a0 * f, v.a1 * f, v.d * g, v.mod) for p, v in self.terms.items()
                }
        else:
            # Q(sqrt(s)) has zero divisors when s is a rational square
            for p, v in self.terms.items():
                w = v * c
                if not w.is_zero():
                    res.terms[p] = w
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.sector == other.sector and self.terms == other.terms

    # ------------------------------------------------------------------

    def max_degree(self) -> Fraction:
        return Fraction(max((sum(p) for p in self.terms), default=0), 2)

    def degrees(self) -> List[Fraction]:
        return [Fraction(k, 2) for k in sorted({sum(p) for p in self.terms})]

    def is_homogeneous(self) -> bool:
        return len({sum(p) for p in self.terms}) <= 1

    def homogeneous_component(self, deg) -> "FockVector":
        k = double(deg)
        res = FockVector(self.sector)
        res.terms = {p: c for p, c in self.terms.items() if sum(p) == k}
        return res

    # ------------------------------------------------------------------

    def apply_mode(self, n) -> "FockVector":
        """Apply the Heisenberg mode h(n): n < 0 creates depth -n, n > 0
        annihilates via [h(n), h(-n)] = n, n = 0 multiplies by lam."""
        k = double(n)
        if k == 0:
            if self.sector.twisted:
                raise ValueError("h(0) does not exist in the twisted sector")
        elif k % 2 != self.sector.depth_parity():
            raise ValueError("mode %s not allowed in sector %s" % (n, self.sector))
        # Adding or removing one part maps distinct keys to distinct keys, so
        # no two terms collide.
        res = FockVector(self.sector)
        lam = self.sector.lam_scalar() if k == 0 else None
        for p, c in self.terms.items():
            t = mode_term(k, p)
            if t is not None:
                # t[1] halves: 2 for a creation mode, which keeps c
                if k > 0:
                    c = Scalar(c.a0 * t[1], c.a1 * t[1], c.d * 2, c.mod)
                elif not k:
                    c = c * lam
                if c:
                    res.terms[t[0]] = c
        return res

    def theta(self) -> "FockVector":
        """The order-two automorphism sending each h(-n) to -h(-n)."""
        res = FockVector(self.sector)
        res.terms = {p: (c if len(p) % 2 == 0 else -c) for p, c in self.terms.items()}
        return res

    # ------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        top = "1_tw" if self.sector.twisted else ("|0>" if self.sector.s is None else "e^lam")
        for p in sorted(self.terms, key=lambda q: (sum(q), q)):
            c = self.terms[p]
            word = "".join("h(-%s)" % halve(k) for k in p)
            parts.append("(%s) %s%s" % (c, word, top))
        return " + ".join(parts)

    def __repr__(self):
        return "FockVector(%s)" % self


def mode_term(k: int, p: Key) -> Optional[Tuple[Key, int]]:
    """h(k/2) applied to the monomial p, for a doubled mode index k legal in
    p's sector: (key, factor) with the factor in units of 1/2, or None when
    the result is zero.  k < 0 creates the part -k (factor 2), k > 0
    annihilates one part k with factor (k/2)*multiplicity, and k = 0 gives
    factor 2 and leaves the caller to multiply by lam, the sector's top
    charge.  The one Heisenberg rule of the package."""
    if k < 0:
        return tuple(sorted(p + (-k,), reverse=True)), 2
    if k == 0:
        return p, 2
    mult = p.count(k)
    if not mult:
        return None
    i = p.index(k)
    return p[:i] + p[i + 1 :], k * mult


def numerators(v: FockVector) -> Tuple[int, SValue, List[Tuple[Key, int, int]]]:
    """(den, mod, [(key, a0, a1)]): v's coefficients (a0 + a1*lam)/den over
    one common den, in the order of v.terms, and their modulus (a twisted
    vector has one once a charged operator acts on it)."""
    cs = v.terms.values()
    den = math.lcm(*[c.d for c in cs])
    mod = next((c.mod for c in cs if c.mod is not None), v.sector.s)
    return den, mod, [(p, c.a0 * (den // c.d), c.a1 * (den // c.d)) for p, c in v.terms.items()]


# ----------------------------------------------------------------------
# bases and forms


def parity_rows(vectors: Sequence[FockVector], keys: Sequence[Key]) -> List[list]:
    """The coefficients of the vectors (columns) at the keys (rows) in the
    theta-parity basis lam^(k mod 2) h(-parts)e^lam of the k-part keys.

    theta (h(n) -> -h(n), e^lam -> e^(-lam)) with lam -> -lam fixes every
    L(n), so a theta-even vector of a charged sector has a rational times
    lam^(k mod 2) on each k-part monomial.  There each odd-part row is
    divided by lam, a unit as lam^2 = s != 0, which keeps linalg's pivots
    and solutions and makes a theta-even column rational.  Elsewhere the
    rows are the plain coefficients."""
    rows = [[v.terms.get(p, 0) for v in vectors] for p in keys]
    if vectors and vectors[0].sector.charged():
        lam = vectors[0].sector.lam_scalar()
        for p, row in zip(keys, rows):
            if len(p) % 2:
                row[:] = [c / lam if c else c for c in row]
    return rows


def partition_keys(total: int, sector: Sector) -> List[Key]:
    """All keys of the sector with doubled degree `total`, largest parts
    first."""
    parity = sector.depth_parity()

    def rec(total: int, top: int) -> List[Key]:
        if total == 0:
            return [()]
        out: List[Key] = []
        d = min(top, total)
        if d % 2 != parity:
            d -= 1
        while d > 0:
            for rest in rec(total - d, d):
                out.append((d,) + rest)
            d -= 2
        return out

    return rec(total, total) if total >= 0 else []


def partitions_of(total, sector: Sector) -> List[Partition]:
    """All depth partitions of the given total allowed in the sector."""
    try:
        k = double(total)
    except ValueError:
        return []
    return [tuple(Fraction(d, 2) for d in p) for p in partition_keys(k, sector)]


def basis_at_degree(sector: Sector, degree, parity: Optional[int] = None) -> List[Partition]:
    """Partitions of the given degree, optionally filtered by length parity
    (0 for theta-even, 1 for theta-odd)."""
    parts = partitions_of(degree, sector)
    if parity is not None:
        parts = [p for p in parts if len(p) % 2 == parity]
    return sorted(parts)


def contravariant_form(v: FockVector, w: FockVector) -> Scalar:
    """Diagonal pairing with (h(-m1)^p1 ... top, itself) = prod m_i^{p_i} p_i!."""
    v._require_same(w)
    acc = Scalar.zero()
    for part, c in v.terms.items():
        d = w.terms.get(part)
        if d is None:
            continue
        norm = Fraction(1)
        for k in set(part):
            p = part.count(k)
            norm *= Fraction(k, 2) ** p * math.factorial(p)
        acc = acc + c * d * norm
    return acc
