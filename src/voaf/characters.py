"""Exact formal q-series and the character identities of the orbifold modules.

A QSeries keeps its exponents on an integer lattice: the term c q^e is
stored at the key k = e * den, for one common denominator `den` of the
series, and every character's coefficients are ints.  Sums and products
rescale two series to the lcm of their denominators and run on ints; only
`coeffs`, `to_json` and printing build Fractions.  The cutoff is rational,
and arithmetic propagates the smallest cutoff involved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .scalars import quarter_square_index, rational

_new = object.__new__


def _num(c):
    """A coefficient as an int when it is integral, else as a Fraction."""
    c = rational(c)
    return c.numerator if c.denominator == 1 else c


def _floor(cutoff: Fraction, den: int) -> int:
    """The largest key k with k/den <= cutoff."""
    return cutoff.numerator * den // cutoff.denominator


def _series(terms: Dict[int, object], den: int, cutoff: Fraction) -> "QSeries":
    """A QSeries from nonzero terms on the lattice 1/den within the cutoff."""
    out = _new(QSeries)
    out.terms, out.den, out.cutoff = terms, den, cutoff
    return out


def _common(a: "QSeries", b: "QSeries") -> Tuple[int, Dict[int, object], Dict[int, object]]:
    """The lcm of the two denominators and both term dicts keyed on it."""
    if a.den == b.den:
        return a.den, a.terms, b.terms
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return den, {k * fa: c for k, c in a.terms.items()}, {k * fb: c for k, c in b.terms.items()}


class QSeries:
    """Truncated formal series sum c_e q^e with rational exponents:
    `terms` maps the key e * den of each nonzero term to its coefficient."""

    __slots__ = ("terms", "den", "cutoff")

    def __init__(self, coeffs: Optional[Dict[Fraction, Fraction]] = None, cutoff=Fraction(20)):
        self.cutoff = rational(cutoff)
        pairs = [(rational(e), _num(c)) for e, c in (coeffs or {}).items()]
        self.den = math.lcm(*(e.denominator for e, _ in pairs))
        self.terms: Dict[int, object] = {
            e.numerator * (self.den // e.denominator): c for e, c in pairs if c and e <= self.cutoff
        }

    @property
    def coeffs(self) -> Dict[Fraction, Fraction]:
        """The nonzero terms as exponent -> coefficient, in Fractions."""
        return {Fraction(k, self.den): Fraction(c) for k, c in self.terms.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(cutoff=Fraction(20)) -> "QSeries":
        return QSeries({}, cutoff)

    @staticmethod
    def one(cutoff=Fraction(20)) -> "QSeries":
        return QSeries({0: 1}, cutoff)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        cut = min(self.cutoff, other.cutoff)
        den, a, b = _common(self, other)
        top = _floor(cut, den)
        out = {k: c for k, c in a.items() if k <= top}
        for k, c in b.items():
            if k <= top:
                c += out.get(k, 0)
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return _series(out, den, cut)

    def __neg__(self) -> "QSeries":
        return _series({k: -c for k, c in self.terms.items()}, self.den, self.cutoff)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = _num(other)
            terms = {k: c * other for k, c in self.terms.items()} if other else {}
            return _series(terms, self.den, self.cutoff)
        cut = min(self.cutoff, other.cutoff)
        den, a, b = _common(self, other)
        top = _floor(cut, den)
        right = sorted(b.items())
        out: Dict[int, object] = {}
        get = out.get
        for k1, c1 in a.items():
            room = top - k1
            for k2, c2 in right:
                if k2 > room:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return _series({k: c for k, c in out.items() if c}, den, cut)

    __rmul__ = __mul__

    def shift(self, e) -> "QSeries":
        e = rational(e)
        den = math.lcm(self.den, e.denominator)
        f = den // self.den
        off = e.numerator * (den // e.denominator)
        return _series({k * f + off: c for k, c in self.terms.items()}, den, self.cutoff + e)

    def truncate(self, cutoff) -> "QSeries":
        cutoff = rational(cutoff)
        top = _floor(cutoff, self.den)
        return _series({k: c for k, c in self.terms.items() if k <= top}, self.den, cutoff)

    def agrees_with(self, other: "QSeries") -> Tuple[bool, Optional[Fraction]]:
        """Coefficientwise comparison up to the common cutoff; returns the
        first mismatching exponent on failure."""
        den, a, b = _common(self, other)
        top = _floor(min(self.cutoff, other.cutoff), den)
        bad = [k for k in a.keys() | b.keys() if k <= top and a.get(k, 0) != b.get(k, 0)]
        if not bad:
            return True, None
        return False, Fraction(min(bad), den)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.agrees_with(other)[0]

    def _sorted(self) -> List[Tuple[Fraction, object]]:
        return [(Fraction(k, self.den), self.terms[k]) for k in sorted(self.terms)]

    def __str__(self):
        parts = [str(c) if e == 0 else "%s q^{%s}" % (c, e) for e, c in self._sorted()]
        return " + ".join(parts) or "0"

    def to_json(self) -> List[List[str]]:
        return [[str(e), str(c)] for e, c in self._sorted()]


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


def _counts_series(counts: Sequence[int], den: int, cutoff: Fraction) -> QSeries:
    """sum_j counts[j] q^{j/den}, to the cutoff."""
    top = _floor(cutoff, den)
    return _series({j: c for j, c in enumerate(counts[: max(top + 1, 0)]) if c}, den, cutoff)


def eta_inverse(cutoff=Fraction(20)) -> QSeries:
    """1/eta(q) = q^{-1/24} * sum_n p(n) q^n, to the cutoff."""
    cutoff = rational(cutoff)
    n_max = int(cutoff + 1)
    counts = _partition_counts(False, 2 * n_max, None)
    series = _counts_series(counts[::2], 1, cutoff + 1)
    return series.shift(Fraction(-1, 24)).truncate(cutoff)


def char_virasoro_c1(h, cutoff=Fraction(20)) -> QSeries:
    """Character of the irreducible central-charge-one module of lowest
    weight h, including the q^{-c/24} normalization."""
    h = rational(h)
    if h < 0:
        raise ValueError("weight must be nonnegative")
    inv = eta_inverse(cutoff + 1)
    n = quarter_square_index(h)
    if n is None:
        out = inv.shift(h)
    else:
        h2 = Fraction((n + 2) * (n + 2), 4)
        out = inv.shift(h) - inv.shift(h2)
    return out.truncate(cutoff)


def graded_dimension(module: Union[ModuleLabel, str], cutoff=Fraction(20)) -> QSeries:
    """Character tr q^{L(0)-1/24} of a module label, or of the whole twisted
    space for "Mtheta", counting the partition basis of each degree by a
    parity-tracking partition recursion."""
    cutoff = rational(cutoff)
    twisted = module == "Mtheta" or module.kind.startswith("Mtheta")
    parity = None if module == "Mtheta" else module.parity()
    # the weight of the sector's top vector: 1/16 twisted, s/2 charged
    offset = Fraction(1, 16) if twisted else Fraction(module.s or 0, 2)
    counts = _partition_counts(twisted, math.floor(2 * (cutoff + 1)), parity)
    series = _counts_series(counts, 2, cutoff + 1)
    return series.shift(offset - Fraction(1, 24)).truncate(cutoff)


# Every lowest weight of the Virasoro decomposition is m^2/4, with m running
# over progressions start + step*p, p >= 0: kind -> (starts, step).
_PROGRESSIONS: Dict[str, Tuple[Tuple[Fraction, ...], int]] = {
    "M+": ((Fraction(0),), 4),
    "M-": ((Fraction(2),), 4),
    "Mtheta+": ((Fraction(1, 2), Fraction(7, 2)), 4),
    "Mtheta-": ((Fraction(3, 2), Fraction(5, 2)), 4),
}


def decomposition_weights(module: ModuleLabel, hmax) -> List[Tuple[Fraction, int]]:
    """Lowest weights (with multiplicity one) of the irreducible Virasoro
    decomposition of the module, up to hmax: m^2/4 over the progressions of
    _PROGRESSIONS, over n + 2p for a degenerate M(s) with s/2 = n^2/4, and
    s/2 alone for a generic M(s)."""
    hmax = rational(hmax)
    if module.kind in _PROGRESSIONS:
        starts, step = _PROGRESSIONS[module.kind]
    else:
        h = module.s / 2
        n = quarter_square_index(h)
        if n is None:
            return [(h, 1)] if h <= hmax else []
        starts, step = (Fraction(n),), 2
    out: List[Tuple[Fraction, int]] = []
    for m in starts:
        while m * m / 4 <= hmax:
            out.append((m * m / 4, 1))
            m += step
    return sorted(out)

