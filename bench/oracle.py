"""Expected outputs computed without the voaf engine.

Everything here is derived from closed forms: the fusion classification of
the orbifold modules, the charge closure of a grid, and the graded dimensions
of the Fock-space modules as partition counts from integer generating
functions.  Nothing is imported from ``voaf``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

TWISTED = ("Mtheta+", "Mtheta-")
LADDER = tuple(Fraction(n * n, 2) for n in (5, 6, 7, 8))  # 25/2, 18, 49/2, 32

_CHARGED = re.compile(r"M\(s=(\d+(?:/\d+)?)\)")


def label(s: Fraction) -> str:
    return "M(s=%s)" % s


def charge(text: str) -> Optional[Fraction]:
    """Squared charge of a charged label, None for the four others."""
    m = _CHARGED.fullmatch(text)
    return Fraction(m.group(1)) if m else None


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if p * p == x.numerator and q * q == x.denominator:
        return Fraction(p, q)
    return None


def closure(grid: Sequence[Fraction]) -> List[Fraction]:
    """The grid together with (sqrt(s1) +- sqrt(s2))^2 wherever rational."""
    base = sorted(set(grid))
    out = set(base)
    for s1 in base:
        for s2 in base:
            r = rational_sqrt(s1 * s2)
            if r is None:
                continue
            for nu in (s1 + s2 + 2 * r, s1 + s2 - 2 * r):
                if nu > 0:
                    out.add(nu)
    return sorted(out)


def table_triples(grid: Sequence[Fraction]) -> List[Tuple[str, str, str]]:
    """Rows of `fusion-table`, in order: grid labels twice, closure once."""
    ends_lo, ends_hi = ["M+", "M-"], list(TWISTED)
    base = ends_lo + [label(s) for s in sorted(set(grid))] + ends_hi
    targets = ends_lo + [label(s) for s in closure(grid)] + ends_hi
    return [(m, n, l) for m in base for n in base for l in targets]


def fusion_verdict(m: str, n: str, l: str) -> int:
    """Closed-form fusion rule of the orbifold modules.

    Twisted labels must come in pairs; a twisted pair fuses through M+ when
    the parities agree, through M- when they differ, and through every
    charged module.  Three charged modules fuse when their squared charges
    satisfy s^2 + t^2 + u^2 - 2st - 2su - 2tu = 0, two when the charges are
    equal; the vacuum kinds fuse when the number of M- is even.
    """
    labels = (m, n, l)
    twisted = [x for x in labels if x in TWISTED]
    if len(twisted) % 2:
        return 0
    if len(twisted) == 2:
        other = next(x for x in labels if x not in TWISTED)
        same = twisted[0] == twisted[1]
        if other == "M+":
            return int(same)
        if other == "M-":
            return int(not same)
        return 1
    charges = [charge(x) for x in labels if charge(x) is not None]
    if len(charges) == 3:
        s, t, u = charges
        return int(s * s + t * t + u * u - 2 * (s * t + s * u + t * u) == 0)
    if len(charges) == 2:
        return int(charges[0] == charges[1])
    if len(charges) == 1:
        return 0
    return int(labels.count("M-") % 2 == 0)


def _partition_counts(parts: Sequence[int], top: int) -> Tuple[List[int], List[int]]:
    """Coefficients up to x^top of prod 1/(1 - x^k) and prod 1/(1 + x^k)."""
    plain = [1] + [0] * top
    signed = [1] + [0] * top
    for k in parts:
        for n in range(k, top + 1):
            plain[n] += plain[n - k]
            signed[n] -= signed[n - k]
    return plain, signed


def char_terms(module: str, cutoff: int) -> List[List[str]]:
    """`char --json` terms: [exponent, coefficient] of q^(L(0) - 1/24).

    Degrees are counted in halves so the twisted sector (half-odd parts)
    and the untwisted one (integer parts) share one integer recursion; the
    theta-parity pieces are (P +- Q)/2 with P, Q the two products above.
    """
    twisted = module.startswith("Mtheta")
    top = 2 * (cutoff + 1)
    parts = range(1, top + 1, 2) if twisted else range(2, top + 1, 2)
    plain, signed = _partition_counts(parts, top)
    if twisted:
        offset = Fraction(1, 16)
    else:
        offset = charge(module) / 2 if charge(module) is not None else Fraction(0)
    parity = {"M+": 1, "Mtheta+": 1, "M-": -1, "Mtheta-": -1}.get(module, 0)
    terms = []
    for d2 in range(top + 1):
        count = (plain[d2] + parity * signed[d2]) // (2 if parity else 1)
        e = Fraction(d2, 2) + offset - Fraction(1, 24)
        if count and e <= cutoff:
            terms.append([str(e), str(count)])
    return terms
