"""Exact formal q-series and the character identities of the orbifold modules.

A QSeries keeps exact rational coefficients at exact rational exponents up
to a rational cutoff, and arithmetic propagates the smallest cutoff
involved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .labels import ModuleLabel
from .scalars import rational_sqrt

class QSeries:
    """Truncated formal series sum c_e q^e with rational exponents."""

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs: Optional[Dict[Fraction, Fraction]] = None, cutoff=Fraction(20)):
        self.cutoff = Fraction(cutoff)
        self.coeffs: Dict[Fraction, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                e = Fraction(e)
                c = Fraction(c)
                if c and e <= self.cutoff:
                    self.coeffs[e] = c

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(cutoff=Fraction(20)) -> "QSeries":
        return QSeries({}, cutoff)

    @staticmethod
    def one(cutoff=Fraction(20)) -> "QSeries":
        return QSeries({Fraction(0): Fraction(1)}, cutoff)

    # -- arithmetic -------------------------------------------------------

    def _align(self, other: "QSeries") -> Fraction:
        return min(self.cutoff, other.cutoff)

    def __add__(self, other: "QSeries") -> "QSeries":
        cut = self._align(other)
        out: Dict[Fraction, Fraction] = {}
        for e in set(self.coeffs) | set(other.coeffs):
            if e > cut:
                continue
            c = self.coeffs.get(e, Fraction(0)) + other.coeffs.get(e, Fraction(0))
            if c:
                out[e] = c
        return QSeries(out, cut)

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.cutoff)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries({e: c * other for e, c in self.coeffs.items()}, self.cutoff)
        cut = self._align(other)
        low_self = min(self.coeffs, default=Fraction(0))
        low_other = min(other.coeffs, default=Fraction(0))
        out: Dict[Fraction, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            if e1 + low_other > cut:
                continue
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > cut:
                    continue
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QSeries(out, cut)

    __rmul__ = __mul__

    def shift(self, e) -> "QSeries":
        e = Fraction(e)
        return QSeries({k + e: c for k, c in self.coeffs.items()}, self.cutoff + e)

    def truncate(self, cutoff) -> "QSeries":
        cutoff = Fraction(cutoff)
        return QSeries({e: c for e, c in self.coeffs.items() if e <= cutoff}, cutoff)

    def agrees_with(self, other: "QSeries") -> Tuple[bool, Optional[Fraction]]:
        """Coefficientwise comparison up to the common cutoff; returns the
        first mismatching exponent on failure."""
        cut = self._align(other)
        for e in sorted(
            e for e in set(self.coeffs) | set(other.coeffs) if e <= cut
        ):
            if self.coeffs.get(e, Fraction(0)) != other.coeffs.get(e, Fraction(0)):
                return False, e
        return True, None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.agrees_with(other)[0]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                parts.append("%s q^{%s}" % (c, e))
        return " + ".join(parts)

    def to_json(self) -> List[List[str]]:
        return [[str(e), str(self.coeffs[e])] for e in sorted(self.coeffs)]


def _partition_counts(twisted: bool, n_half: int, parity: Optional[int]) -> List[int]:
    """Number of Fock basis partitions of each degree j/2, j = 0..n_half.

    Parts are the depths of the sector (half-odd when twisted, positive
    integers otherwise) and may repeat; parity 0 or 1 keeps only the
    partitions of that length parity, None keeps all of them.
    """
    even = [int(j == 0) for j in range(n_half + 1)]
    odd = [0] * (n_half + 1)
    for part in range(1 if twisted else 2, n_half + 1, 2):
        for j in range(part, n_half + 1):
            even[j] += odd[j - part]
            odd[j] += even[j - part]
    if parity is None:
        return [e + o for e, o in zip(even, odd)]
    return odd if parity else even


def eta_inverse(cutoff=Fraction(20)) -> QSeries:
    """1/eta(q) = q^{-1/24} * sum_n p(n) q^n, to the cutoff."""
    cutoff = Fraction(cutoff)
    n_max = int(cutoff + 1)
    counts = _partition_counts(False, 2 * n_max, None)
    series = QSeries(
        {Fraction(n): Fraction(counts[2 * n]) for n in range(n_max + 1)}, cutoff + 1
    )
    return series.shift(Fraction(-1, 24)).truncate(cutoff)


def _degenerate_index(h: Fraction) -> Optional[int]:
    """The integer n >= 0 with h = n^2/4, or None when h is not of that form."""
    root = rational_sqrt(4 * h)
    if root is None or root.denominator != 1:
        return None
    return root.numerator


def char_virasoro_c1(h, cutoff=Fraction(20)) -> QSeries:
    """Character of the irreducible central-charge-one module of lowest
    weight h, including the q^{-c/24} normalization."""
    h = Fraction(h)
    if h < 0:
        raise ValueError("weight must be nonnegative")
    inv = eta_inverse(cutoff + 1)
    n = _degenerate_index(h)
    if n is None:
        out = inv.shift(h)
    else:
        h2 = Fraction((n + 2) * (n + 2), 4)
        out = inv.shift(h) - inv.shift(h2)
    return out.truncate(cutoff)


def graded_dimension(module: Union[ModuleLabel, str], cutoff=Fraction(20)) -> QSeries:
    """Character tr q^{L(0)-1/24}, counting the partition basis of each
    degree by a parity-tracking partition recursion."""
    cutoff = Fraction(cutoff)
    if isinstance(module, str) and module == "Mtheta":
        twisted, parity, offset = True, None, Fraction(1, 16)
    else:
        if isinstance(module, str):
            module = ModuleLabel.parse(module)
        sector = module.sector()
        twisted, parity, offset = sector.twisted, module.parity(), sector.weight_offset_rat()
    counts = _partition_counts(twisted, math.floor(2 * (cutoff + 1)), parity)
    coeffs = {Fraction(j, 2): Fraction(c) for j, c in enumerate(counts) if c}
    series = QSeries(coeffs, cutoff + 1)
    return series.shift(offset - Fraction(1, 24)).truncate(cutoff)


# Every lowest weight of the Virasoro decomposition is m^2/4, with m running
# over progressions start + step*p, p >= 0: kind -> (starts, step).
_PROGRESSIONS: Dict[str, Tuple[Tuple[Fraction, ...], int]] = {
    "M+": ((Fraction(0),), 4),
    "M-": ((Fraction(2),), 4),
    "Mtheta+": ((Fraction(1, 2), Fraction(7, 2)), 4),
    "Mtheta-": ((Fraction(3, 2), Fraction(5, 2)), 4),
}


def decomposition_weights(module: Union[ModuleLabel, str], hmax) -> List[Tuple[Fraction, int]]:
    """Lowest weights (with multiplicity one) of the irreducible Virasoro
    decomposition of the module, up to hmax: m^2/4 over the progressions of
    _PROGRESSIONS, over n + 2p for a degenerate M(s) with s/2 = n^2/4, and
    s/2 alone for a generic M(s)."""
    if isinstance(module, str):
        module = ModuleLabel.parse(module)
    hmax = Fraction(hmax)
    if module.kind in _PROGRESSIONS:
        starts, step = _PROGRESSIONS[module.kind]
    else:
        h = module.s / 2
        n = _degenerate_index(h)
        if n is None:
            return [(h, 1)] if h <= hmax else []
        starts, step = (Fraction(n),), 2
    out: List[Tuple[Fraction, int]] = []
    for m in starts:
        while m * m / 4 <= hmax:
            out.append((m * m / 4, 1))
            m += step
    return sorted(out)


def verify_decomposition(
    module: Union[ModuleLabel, str],
    parts: Sequence[Tuple[Fraction, int]],
    cutoff=Fraction(20),
) -> Tuple[bool, Optional[dict]]:
    """Compare the module character with a sum of irreducible characters.

    Returns (True, None) on coefficientwise agreement up to the cutoff, or
    (False, report) with the first mismatching exponent and both values.
    """
    cutoff = Fraction(cutoff)
    lhs = graded_dimension(module, cutoff)
    rhs = QSeries.zero(cutoff)
    for h, mult in parts:
        rhs = rhs + char_virasoro_c1(h, cutoff) * Fraction(mult)
    ok, at = lhs.agrees_with(rhs)
    if ok:
        return True, None
    return False, {
        "exponent": str(at),
        "module_coefficient": str(lhs.coeffs.get(at, Fraction(0))),
        "sum_coefficient": str(rhs.coeffs.get(at, Fraction(0))),
    }


def _half_odd_factors(cutoff: Fraction) -> Iterator[QSeries]:
    """The factors 1/(1-q^{k-1/2}), k >= 1, of prod 1/(1-q^{k-1/2}) below
    the cutoff, as geometric series."""
    step = Fraction(1, 2)
    while step <= cutoff:
        terms = math.floor(cutoff / step) + 1
        yield QSeries({step * i: Fraction(1) for i in range(terms)}, cutoff)
        step += 1


def jacobi_triple_check(cutoff=Fraction(20)) -> bool:
    """prod_k (1-q^k)/(1-q^{k-1/2}) = sum_{p>=0} q^{p(p+1)/4}."""
    cutoff = Fraction(cutoff)
    lhs = QSeries.one(cutoff)
    # alternating the factors keeps the partial products sparse
    for k, geom in enumerate(_half_odd_factors(cutoff), 1):
        euler = QSeries({Fraction(0): Fraction(1), Fraction(k): Fraction(-1)}, cutoff)
        lhs = lhs * euler * geom
    rhs: Dict[Fraction, Fraction] = {}
    p = 0
    while Fraction(p * (p + 1), 4) <= cutoff:
        e = Fraction(p * (p + 1), 4)
        rhs[e] = rhs.get(e, Fraction(0)) + 1
        p += 1
    return lhs.agrees_with(QSeries(rhs, cutoff))[0]


def twisted_character_identity(cutoff=Fraction(20)) -> bool:
    """The twisted-space character equals both closed forms:
    q^{1/16-1/24} prod 1/(1-q^{k-1/2}) and (1/eta) sum q^{(2p+1)^2/16}."""
    cutoff = Fraction(cutoff)
    lhs = graded_dimension("Mtheta", cutoff)
    mid = QSeries.one(cutoff + 1)
    for geom in _half_odd_factors(cutoff + 1):
        mid = mid * geom
    mid = mid.shift(Fraction(1, 16) - Fraction(1, 24)).truncate(cutoff)
    inv = eta_inverse(cutoff + 1)
    rhs = QSeries.zero(cutoff + 1)
    p = 0
    while Fraction((2 * p + 1) ** 2, 16) <= cutoff + 1:
        rhs = rhs + inv.shift(Fraction((2 * p + 1) ** 2, 16))
        p += 1
    rhs = rhs.truncate(cutoff)
    return lhs.agrees_with(mid)[0] and mid.agrees_with(rhs)[0]
