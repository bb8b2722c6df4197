"""Labels for the irreducible modules of the orbifold algebra.

The five families are M+, M- (the theta-eigenspaces of the vacuum Fock
space), Mlam(s) (the charged Fock space with s = lam^2 > 0, noting the
lam <-> -lam isomorphism), and Mtheta+/Mtheta- (eigenspaces of the twisted
space).  Each label knows its sector, its parity filter on partition
length, its lowest-weight vector, and the two numerical invariants
(a_M, b_M) = (o(omega), o(J)) on the top level.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .fock import FockVector, Partition, Sector, basis_at_degree
from .scalars import parse_rational, rational

KINDS = ("M+", "M-", "Mlam", "Mtheta+", "Mtheta-")

# (a_M, b_M) of the uncharged kinds
_TOP_INVARIANTS = {
    "M+": (Fraction(0), Fraction(0)),
    "M-": (Fraction(1), Fraction(-6)),
    "Mtheta+": (Fraction(1, 16), Fraction(3, 128)),
    "Mtheta-": (Fraction(9, 16), Fraction(-45, 128)),
}

_INTERNED: Dict[Tuple[str, Optional[Fraction]], "ModuleLabel"] = {}


class ModuleLabel:
    """A label is an immutable value, interned: the constructor checks its
    input and returns the one label of each (kind, s), so equal labels are
    one object, never equal any other type, and hash by identity.  The text
    and the top-level invariants are computed once, when the label is first
    made, because labels key the engine's caches and name every certificate."""

    __slots__ = ("kind", "s", "_str", "_invariants")

    def __new__(cls, kind: str, s=None):
        if kind not in KINDS:
            raise ValueError("unknown module kind %r" % kind)
        if kind == "Mlam":
            if not isinstance(s, (int, Fraction)):
                raise ValueError("Mlam requires a rational s = lam^2, got %r" % (s,))
            s = Fraction(s)
            if s <= 0:
                raise ValueError("Mlam requires positive s = lam^2, got %s" % s)
        elif s is not None:
            raise ValueError("s only applies to Mlam")
        label = _INTERNED.get((kind, s))
        if label is None:
            charged = s is not None
            label = _INTERNED[kind, s] = object.__new__(cls)
            object.__setattr__(label, "kind", kind)
            object.__setattr__(label, "s", s)
            object.__setattr__(label, "_str", "M(s=%s)" % s if charged else kind)
            invariants = (s / 2, s * s - s / 2) if charged else _TOP_INVARIANTS[kind]
            object.__setattr__(label, "_invariants", invariants)
        return label

    def __reduce__(self):
        # copy, deepcopy and pickle make the label again, so get the interned one
        return ModuleLabel, (self.kind, self.s)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleLabel is immutable")

    def __delattr__(self, name):
        raise AttributeError("ModuleLabel is immutable")

    def __str__(self):
        return self._str

    def __repr__(self):
        return "ModuleLabel(kind=%r, s=%r)" % (self.kind, self.s)

    # ------------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "ModuleLabel":
        text = text.strip()
        if text in ("M+", "M-", "Mtheta+", "Mtheta-"):
            return ModuleLabel(text)
        m = re.fullmatch(r"M\(\s*s\s*=\s*(-?\d+(?:/\d+)?)\s*\)", text)
        if m:
            return ModuleLabel("Mlam", parse_rational(m.group(1)))
        raise ValueError("cannot parse module label %r" % text)

    # ------------------------------------------------------------------

    def sector(self) -> Sector:
        if self.kind in ("M+", "M-"):
            return Sector.untwisted(None)
        if self.kind == "Mlam":
            return Sector.untwisted(self.s)
        return Sector.twisted_sector()

    def parity(self) -> Optional[int]:
        """Partition-length parity selecting the theta eigenspace."""
        return {"M+": 0, "M-": 1, "Mlam": None, "Mtheta+": 0, "Mtheta-": 1}[self.kind]

    def top_vector(self) -> FockVector:
        sec = self.sector()
        if self.kind == "M-":
            return FockVector.basis(sec, (1,))
        if self.kind == "Mtheta-":
            return FockVector.basis(sec, (Fraction(1, 2),))
        return FockVector.basis(sec)

    def top_degree(self) -> Fraction:
        return self.top_vector().max_degree()

    def a_M(self) -> Fraction:
        """Lowest conformal weight = action of o(omega) on the top level:
        s/2 for Mlam."""
        return self._invariants[0]

    def b_M(self) -> Fraction:
        """Action of o(J) on the top level: s^2 - s/2 for Mlam."""
        return self._invariants[1]

    def basis_at(self, degree) -> List[Partition]:
        """Partition basis of the degree-`degree` graded piece (degree is
        counted from the top vector of the ambient Fock sector)."""
        return basis_at_degree(self.sector(), rational(degree), self.parity())

    def contains(self, v: FockVector) -> bool:
        if v.sector != self.sector():
            return False
        par = self.parity()
        if par is None:
            return True
        return all(len(p) % 2 == par for p in v.terms)


def mplus() -> ModuleLabel:
    return ModuleLabel("M+")


def mminus() -> ModuleLabel:
    return ModuleLabel("M-")


def mlam(s) -> ModuleLabel:
    return ModuleLabel("Mlam", s)


def mtheta_plus() -> ModuleLabel:
    return ModuleLabel("Mtheta+")


def mtheta_minus() -> ModuleLabel:
    return ModuleLabel("Mtheta-")
