"""Virasoro operators on Fock sectors via the quadratic (Sugawara) formulas.

L(n) = (1/2) sum_k :h(n-k)h(k):  (+ 1/16 delta_{n,0} on the twisted sector),
central charge 1.  On an untwisted sector with top charge lam, h(0) acts as
lam.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import linalg
from .fock import FockVector, Key, Sector, mode_term, numerators, partition_keys
from .scalars import Scalar


@lru_cache(maxsize=2048)
def _pairs(n: int, p: Key, par: int, charged: bool) -> Tuple[Tuple[Key, int, int], ...]:
    """L(n) on the monomial p without the twisted offset: one (key, j, m)
    per nonzero normal-ordered pair, whose image is m/16 lam^j times the
    monomial `key`.  It depends on the sector only through its depth
    parity and whether h(0) acts."""
    # k is a doubled mode index.  Off-diagonal pairs h(n - k/2) h(k/2) have
    # k > n, h(k/2) applied first so the product is normal ordered; only
    # k <= 0 and the parts of p give a nonzero h(k/2), and h(0) only on a
    # charged sector.  Their factors f1/2 and f2/2 give m = 4*f1*f2.  The
    # diagonal (1/2) h(n/2)^2, when n/2 is a legal mode index, gives 2*f1*f2.
    first = n + 1 if (n + 1) % 2 == par else n + 2
    pairs = [(k, 4) for k in dict.fromkeys(p) if k > n and (charged or k != 2 * n)]
    pairs += [(k, 4) for k in range(first, 1, 2) if k or charged]
    if n % 2 == par and (n or charged):
        pairs.append((n, 2))
    hits = []
    for k, w in pairs:
        t = mode_term(k, p)
        if t is not None:
            u = mode_term(2 * n - k, t[0])
            if u is not None:
                hits.append((u[0], (k == 0) + (k == 2 * n), w * t[1] * u[1]))
    return tuple(hits)


def L(n: int, v: FockVector) -> FockVector:
    """Apply L(n) to v in one pass over its monomials, on integers: v's
    coefficients are read once as numerators over one denominator, each
    monomial's pairs of modes add integer multiples of them, and each
    output coefficient is built once."""
    sector = v.sector
    if v.is_zero():
        return v
    par, charged = sector.depth_parity(), sector.charged()
    offset = sector.twisted and n == 0  # + 1/16 on the twisted sector
    den, mod, nums = numerators(v)
    sn, sd = (sector.s.numerator, sector.s.denominator) if charged else (0, 1)
    out: Dict[Key, List[int]] = {}
    for p, a0, a1 in nums:
        hits = _pairs(n, p, par, charged)
        if offset:
            hits += ((p, 0, 1),)
        # (a0 + a1*lam) * lam^j as numerators over sd
        pows = ((a0 * sd, a1 * sd), (a1 * sn, a0 * sd), (a0 * sn, a1 * sn))
        for q, j, m in hits:
            b0, b1 = pows[j]
            acc = out.get(q)
            if acc is None:
                out[q] = [b0 * m, b1 * m]
            else:
                acc[0] += b0 * m
                acc[1] += b1 * m
    top = 16 * den * sd
    res = FockVector(sector)
    for p, (x0, x1) in out.items():
        if x0 or x1:
            res.terms[p] = Scalar(x0, x1, top, mod)
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
        rows = [[img.terms.get(p, 0) for img in images] for p in basis_parts]
        rhs = [comp.terms.get(p, 0) for p in basis_parts]
        if not words:
            if comp.terms:
                raise NotInSpan("degree %s component has no candidate words" % deg)
            continue
        try:
            sol = linalg.solve(rows, rhs)
        except linalg.InconsistentSystem:
            raise NotInSpan("degree %s component not in descendant span" % deg)
        for w, c in zip(words, sol):
            if c:
                coords[w] = c
    return coords

