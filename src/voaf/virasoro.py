"""Virasoro operators on Fock sectors via the quadratic (Sugawara) formulas.

L(n) = (1/2) sum_k :h(n-k)h(k):  (+ 1/16 delta_{n,0} on the twisted sector),
central charge 1.  On an untwisted sector with top charge lam, h(0) acts as
lam.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import linalg
from .fock import FockVector, Key, Sector, mode_term, partition_keys
from .scalars import Scalar


_HALF = Fraction(1, 2)
_TWISTED_OFFSET = Fraction(1, 16)


def L(n: int, v: FockVector) -> FockVector:
    """Apply L(n) to v in one pass over its monomials."""
    sector = v.sector
    if v.is_zero():
        return v
    # Doubled mode indices: the off-diagonal pairs h(n - k/2) h(k/2) with
    # k > n, h(k/2) applied first so the product is normal ordered.  Only
    # k <= 0 and the parts of a monomial give a nonzero h(k/2).
    par = sector.depth_parity()
    lam = None if sector.twisted else sector.lam_scalar()
    first = n + 1 if (n + 1) % 2 == par else n + 2
    low = range(first, 1, 2)
    # the diagonal (1/2) h(n/2)^2 when n/2 is a legal mode index
    diagonal = n % 2 == par and not (n == 0 and sector.s is None)
    offset = _TWISTED_OFFSET if sector.twisted and n == 0 else None
    out: Dict[Key, Scalar] = {}

    def add(p, c):
        prev = out.get(p)
        out[p] = c if prev is None else prev + c

    def pair(k, p, c):
        # h(n - k/2) h(k/2) c*p
        t = mode_term(k, p, c, lam)
        if t is not None:
            t = mode_term(2 * n - k, t[0], t[1], lam)
            if t is not None:
                add(t[0], t[1])

    for p, c in v.terms.items():
        prev_part = None
        for k in p:
            if k <= n:
                break
            if k != prev_part:
                prev_part = k
                pair(k, p, c)
        for k in low:
            pair(k, p, c)
        if diagonal:
            pair(n, p, c * _HALF)
        if offset is not None:
            add(p, c * offset)
    res = FockVector(sector)
    res.terms = {p: c for p, c in out.items() if c}
    return res


def L_word(ms: Sequence, v: FockVector) -> FockVector:
    """Apply L(-m_1) L(-m_2) ... L(-m_k) to v (leftmost applied last)."""
    for m in reversed(ms):
        v = L(-m, v)
    return v


# ----------------------------------------------------------------------
# descendant coordinates


class DescendantWord(NamedTuple):
    """L(-m1)...L(-mk) applied to generator number `gen` (m1 >= ... >= mk >= 1)."""

    gen: int
    ms: Tuple[int, ...]

    def __str__(self):
        w = "".join("L(-%d)" % m for m in self.ms)
        return "%sg%d" % (w, self.gen)


def words_at_level(gen: int, level: int) -> List[DescendantWord]:
    """The words of the given level, largest parts first: the partitions
    of `level`, read off the untwisted keys of doubled degree 2 * level."""
    keys = partition_keys(2 * level, Sector.untwisted(None))
    return [DescendantWord(gen, tuple(k // 2 for k in key)) for key in keys]


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
    mod = sector.s
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
