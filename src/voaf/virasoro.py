"""Virasoro operators on Fock sectors via the quadratic (Sugawara) formulas.

L(n) = (1/2) sum_k :h(n-k)h(k):  (+ 1/16 delta_{n,0} on the twisted sector),
central charge 1.  On an untwisted sector with top charge lam, h(0) acts as
lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .fock import FockVector
from .scalars import Scalar


def L(n, v: FockVector) -> FockVector:
    """Apply L(n) to v."""
    n = Fraction(n)
    sector = v.sector
    if v.is_zero():
        return v
    out = FockVector.zero(sector)
    maxdeg = v.max_degree()
    # off-diagonal pairs (n-k, k) with k > n/2; h(k) first keeps the product
    # normal ordered.  Positive k beyond the deepest term annihilates v.
    step = Fraction(1)
    if sector.twisted:
        k = Fraction(1, 2) + (n - Fraction(1)) // 2  # largest half-odd <= n/2
        while k <= n / 2:
            k += step
    else:
        k = n // 2
        while k <= n / 2:
            k += step
    while k <= maxdeg or k <= 0:
        out = out + v.apply_mode(k).apply_mode(n - k)
        k += step
    # diagonal term k = n/2 when that is a legal mode index
    half = n / 2
    legal = (half.denominator == 2) if sector.twisted else (half.denominator == 1 and not (half == 0 and sector.s is None))
    if legal:
        out = out + v.apply_mode(half).apply_mode(half).scale(Fraction(1, 2))
    if sector.twisted and n == 0:
        out = out + v.scale(Fraction(1, 16))
    return out


def L_word(ms: Sequence, v: FockVector) -> FockVector:
    """Apply L(-m_1) L(-m_2) ... L(-m_k) to v (leftmost applied last)."""
    for m in reversed([Fraction(m) for m in ms]):
        v = L(-m, v)
    return v


# ----------------------------------------------------------------------
# descendant coordinates


@dataclass(frozen=True)
class DescendantWord:
    """L(-m1)...L(-mk) applied to generator number `gen` (m1 >= ... >= mk >= 1)."""

    gen: int
    ms: Tuple[int, ...]

    def __str__(self):
        w = "".join("L(-%d)" % m for m in self.ms)
        return "%sg%d" % (w, self.gen)


def words_at_level(gen: int, level: int) -> List[DescendantWord]:
    return [DescendantWord(gen, p) for p in _int_partitions(level)]


def _int_partitions(n: int, max_part: Optional[int] = None) -> List[Tuple[int, ...]]:
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    out = []
    for d in range(min(n, max_part), 0, -1):
        for rest in _int_partitions(n - d, d):
            out.append((d,) + rest)
    return out


class NotInSpan(Exception):
    pass


def express_in_descendants(
    v: FockVector, generators: Sequence[FockVector]
) -> Dict[DescendantWord, Scalar]:
    """Write v as a combination of Virasoro words applied to the generators.

    Works degree by degree; within each degree the solution with pivots on
    the lexicographically earliest words is returned.  Raises NotInSpan if
    some component is outside the descendant span.
    """
    sector = v.sector
    mod = sector.scalar_mod()
    zero = Scalar.zero(mod)
    one = Scalar.one(mod)
    gen_degs = []
    for g in generators:
        if not g.is_homogeneous():
            raise ValueError("generator %s is not homogeneous" % g)
        gen_degs.append(g.max_degree())
    coords: Dict[DescendantWord, Scalar] = {}
    for deg in v.degrees():
        comp = v.homogeneous_component(deg)
        words: List[DescendantWord] = []
        images: List[FockVector] = []
        for gi, g in enumerate(generators):
            lvl = deg - gen_degs[gi]
            if lvl < 0 or lvl.denominator != 1:
                continue
            for w in words_at_level(gi, int(lvl)):
                words.append(w)
                images.append(L_word(w.ms, g))
        basis_parts = sorted(
            {p for img in images for p in img.terms} | set(comp.terms)
        )
        rows = [
            [img.terms.get(p, zero) for img in images] for p in basis_parts
        ]
        rhs = [comp.terms.get(p, zero) for p in basis_parts]
        if not words:
            if comp.terms:
                raise NotInSpan("degree %s component has no candidate words" % deg)
            continue
        try:
            sol = linalg.solve(rows, rhs, zero, one)
        except linalg.InconsistentSystem:
            raise NotInSpan("degree %s component not in descendant span" % deg)
        for w, c in zip(words, sol):
            if not c.is_zero():
                coords[w] = c
    return coords


def reconstruct(coords: Dict[DescendantWord, Scalar], generators: Sequence[FockVector]) -> FockVector:
    acc = FockVector.zero(generators[0].sector)
    for w, c in coords.items():
        acc = acc + L_word(w.ms, generators[w.gen]).scale(c)
    return acc


def singular_vector_image(
    combo: Sequence[Tuple[object, Sequence[int]]], g: FockVector
) -> FockVector:
    """Apply sum_i c_i L(-m_{i,1})...L(-m_{i,k_i}) to g."""
    acc = FockVector.zero(g.sector)
    for c, ms in combo:
        acc = acc + L_word(ms, g).scale(c)
    return acc
