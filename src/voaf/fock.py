"""Fock spaces for the rank-one Heisenberg algebra.

States are linear combinations of monomials h(-n1)...h(-nk)|top> over a
sector.  Untwisted sectors have positive integer mode depths and a top
vector e^lam with h(0)-eigenvalue lam (lam = 0 gives the vacuum module);
twisted sectors have positive half-odd-integer depths and conformal-weight
offset 1/16.

A monomial is stored as its depth partition: a tuple of Fractions sorted in
decreasing order.  Coefficients are Scalars; in a sector with concrete
lam**2 = s they carry modulus s, in the formal-lam sector they are rational
functions of lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .scalars import Scalar

Partition = Tuple[Fraction, ...]


class _Formal:
    def __repr__(self):
        return "FORMAL"


FORMAL = _Formal()

SValue = Union[None, Fraction, _Formal]


@dataclass(frozen=True)
class Sector:
    twisted: bool
    s: object = None  # None (lam=0), Fraction (lam^2 = s), or FORMAL

    @staticmethod
    def untwisted(s: SValue = None) -> "Sector":
        if isinstance(s, int):
            s = Fraction(s)
        return Sector(False, s)

    @staticmethod
    def twisted_sector() -> "Sector":
        return Sector(True, None)

    def scalar_mod(self) -> Optional[Fraction]:
        return self.s if isinstance(self.s, Fraction) else None

    def lam_scalar(self) -> Scalar:
        """h(0) eigenvalue on the top vector."""
        if self.twisted or self.s is None:
            return Scalar.zero(self.scalar_mod())
        return Scalar.lam(self.scalar_mod())

    def depth_ok(self, d: Fraction) -> bool:
        if d <= 0:
            return False
        if self.twisted:
            return d.denominator == 2
        return d.denominator == 1

    def weight_offset_rat(self) -> Fraction:
        """Conformal weight of the top vector (concrete sectors only)."""
        if self.twisted:
            return Fraction(1, 16)
        if self.s is None:
            return Fraction(0)
        if isinstance(self.s, Fraction):
            return self.s / 2
        raise ValueError("formal sector has symbolic weight offset")

    def coeff(self, value) -> Scalar:
        if isinstance(value, Scalar):
            return value
        return Scalar.of(value, mod=self.scalar_mod())

    def __str__(self):
        if self.twisted:
            return "twisted"
        if self.s is None:
            return "untwisted(lam=0)"
        if self.s is FORMAL:
            return "untwisted(lam formal)"
        return "untwisted(lam^2=%s)" % self.s


def _sorted_partition(parts: Iterable[Fraction]) -> Partition:
    return tuple(sorted((Fraction(p) for p in parts), reverse=True))


class FockVector:
    __slots__ = ("sector", "terms")

    def __init__(self, sector: Sector, terms: Optional[Dict[Partition, Scalar]] = None):
        self.sector = sector
        self.terms: Dict[Partition, Scalar] = {}
        if terms:
            for part, c in terms.items():
                c = sector.coeff(c)
                if not c.is_zero():
                    self.terms[_sorted_partition(part)] = c

    # ------------------------------------------------------------------

    @staticmethod
    def zero(sector: Sector) -> "FockVector":
        return FockVector(sector)

    @staticmethod
    def basis(sector: Sector, parts: Iterable = (), coeff=1) -> "FockVector":
        parts = _sorted_partition(Fraction(p) for p in parts)
        for d in parts:
            if not sector.depth_ok(d):
                raise ValueError("depth %s not allowed in sector %s" % (d, sector))
        return FockVector(sector, {parts: sector.coeff(coeff)})

    def copy(self) -> "FockVector":
        v = FockVector(self.sector)
        v.terms = dict(self.terms)
        return v

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
        c = self.sector.coeff(c)
        res = FockVector(self.sector)
        if not c.is_zero():
            res.terms = {p: v * c for p, v in self.terms.items()}
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.sector == other.sector and self.terms == other.terms

    # ------------------------------------------------------------------

    def max_degree(self) -> Fraction:
        return max((sum(p, Fraction(0)) for p in self.terms), default=Fraction(0))

    def degrees(self) -> List[Fraction]:
        return sorted({sum(p, Fraction(0)) for p in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_component(self, deg: Fraction) -> "FockVector":
        res = FockVector(self.sector)
        res.terms = {p: c for p, c in self.terms.items() if sum(p, Fraction(0)) == deg}
        return res

    def coefficient(self, parts: Iterable) -> Scalar:
        key = _sorted_partition(Fraction(p) for p in parts)
        return self.terms.get(key, Scalar.zero(self.sector.scalar_mod()))

    # ------------------------------------------------------------------

    def apply_mode(self, n) -> "FockVector":
        """Apply the Heisenberg mode h(n): n < 0 creates depth -n, n > 0
        annihilates via [h(n), h(-n)] = n, n = 0 multiplies by lam."""
        n = Fraction(n)
        res = FockVector(self.sector)
        if n == 0:
            if self.sector.twisted:
                raise ValueError("h(0) does not exist in the twisted sector")
            lam = self.sector.lam_scalar()
            if lam.is_zero():
                return res
            res.terms = {p: c * lam for p, c in self.terms.items()}
            return res
        if not self.sector.depth_ok(abs(n)):
            raise ValueError("mode %s not allowed in sector %s" % (n, self.sector))
        out: Dict[Partition, Scalar] = {}
        for part, c in self.terms.items():
            if n < 0:
                key = _sorted_partition(part + (-n,))
                new = c
            else:
                mult = part.count(n)
                if not mult:
                    continue
                lst = list(part)
                lst.remove(n)
                key = tuple(lst)
                new = c * (n * mult)
            v = out.get(key)
            v = new if v is None else v + new
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
        res.terms = out
        return res

    def apply_modes(self, modes: Iterable[Fraction]) -> "FockVector":
        v = self
        for n in modes:
            if v.is_zero():
                break
            v = v.apply_mode(n)
        return v

    def theta(self) -> "FockVector":
        """The order-two automorphism sending each h(-n) to -h(-n)."""
        res = FockVector(self.sector)
        res.terms = {p: (c if len(p) % 2 == 0 else -c) for p, c in self.terms.items()}
        return res

    def change_sector(self, sector: Sector) -> "FockVector":
        """Reinterpret the same partitions over another sector (used by the
        charge-shift operator of lattice vertex operators)."""
        res = FockVector(sector)
        for p, c in self.terms.items():
            for d in p:
                if not sector.depth_ok(d):
                    raise ValueError("depth %s not allowed in sector %s" % (d, sector))
            res.terms[p] = c
        return res

    # ------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        top = "1_tw" if self.sector.twisted else ("|0>" if self.sector.s is None else "e^lam")
        for p in sorted(self.terms, key=lambda q: (sum(q, Fraction(0)), q)):
            c = self.terms[p]
            word = "".join("h(-%s)" % d for d in p)
            parts.append("(%s) %s%s" % (c, word, top))
        return " + ".join(parts)

    def __repr__(self):
        return "FockVector(%s)" % self


# ----------------------------------------------------------------------
# bases and forms


def partitions_of(total: Fraction, sector: Sector, max_part: Optional[Fraction] = None) -> List[Partition]:
    """All depth partitions of the given total allowed in the sector."""
    total = Fraction(total)
    if total < 0:
        return []
    if total == 0:
        return [()]
    if max_part is None:
        max_part = total
    out: List[Partition] = []
    d = min(max_part, total)
    step = Fraction(1)
    # largest allowed depth <= d
    if sector.twisted:
        # depths are k/2 with k odd
        k = math.floor(d * 2)
        if k % 2 == 0:
            k -= 1
        d = Fraction(k, 2)
    else:
        d = Fraction(math.floor(d))
    while d > 0:
        for rest in partitions_of(total - d, sector, d):
            out.append((d,) + rest)
        d -= step
    return out


def basis_at_degree(sector: Sector, degree: Fraction, parity: Optional[int] = None) -> List[Partition]:
    """Partitions of the given degree, optionally filtered by length parity
    (0 for theta-even, 1 for theta-odd)."""
    parts = partitions_of(Fraction(degree), sector)
    if parity is not None:
        parts = [p for p in parts if len(p) % 2 == parity]
    return sorted(parts)


def contravariant_form(v: FockVector, w: FockVector) -> Scalar:
    """Diagonal pairing with (h(-m1)^p1 ... top, itself) = prod m_i^{p_i} p_i!."""
    v._require_same(w)
    mod = v.sector.scalar_mod()
    acc = Scalar.zero(mod)
    for part, c in v.terms.items():
        d = w.terms.get(part)
        if d is None:
            continue
        norm = Fraction(1)
        for depth in set(part):
            p = part.count(depth)
            norm *= depth**p * math.factorial(p)
        acc = acc + c * d * norm
    return acc
