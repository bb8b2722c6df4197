"""Zhu's associative-algebra products and the bimodule calculus.

For homogeneous a in the vacuum-charge sector acting on a module vector u:

    a * u = sum_i C(wt a, i) a_{i-1} u        (left product)
    u * a = sum_i C(wt a - 1, i) a_{i-1} u    (right product)
    a o u = sum_i C(wt a, i) a_{i-2} u        (generates O(M))

The quotient by O(M) is the bimodule controlling fusion; membership in
O(M) is decided by an exact linear solve against circle-product columns.
The right product and the phi anti-map, which only `voaf verify` checks,
live in `voaf.suites`.

descendant_to_poly translates a Virasoro word L(-m1)...L(-mk) applied to a
lowest-weight module generator into the polynomial (in x = a_L, y = a_N)
that the word contributes in a contraction against lowest-weight vectors on
both sides, via the rewrite
[L(-n)v] = (-1)^{n-1}[omega*v - n v*omega - wt(v) v].
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg, virasoro
from .fock import FockVector, Sector, basis_at_degree
from .labels import ModuleLabel
from .multipoly import MultiPoly
from .scalars import Scalar
from .vertexops import gen_binom, modes, weight


def _integral_weight(a: FockVector) -> int:
    wa = weight(a)
    if wa.denominator != 1:
        raise ValueError("integral weight required")
    return wa.numerator


def _mode_sum(a: FockVector, u: FockVector, top: int, first: int, count: int) -> FockVector:
    """sum_{i < count} C(top, i) a_{first+i} u."""
    acc = FockVector.zero(u.sector)
    for i, img in enumerate(modes(a, range(first, first + count), u)):
        acc = acc + img.scale(gen_binom(top, i))
    return acc


def star_left(a: FockVector, u: FockVector) -> FockVector:
    wa = _integral_weight(a)
    return _mode_sum(a, u, wa, -1, wa + 1)


def circ(a: FockVector, u: FockVector) -> FockVector:
    wa = _integral_weight(a)
    return _mode_sum(a, u, wa, -2, wa + 1)


# ----------------------------------------------------------------------
# O(M) membership


class MembershipResult(NamedTuple):
    member: bool
    combination: Optional[List[Tuple[FockVector, FockVector, Scalar]]] = None


@functools.cache
def _membership_columns(
    module: ModuleLabel, cutoff: int
) -> Tuple[Tuple[Tuple[FockVector, FockVector], ...], List[int], List[list], Dict]:
    """The nonzero circle products a o u that o_membership solves against,
    reduced once per (module, cutoff): their (a, u) pairs, the pivot columns
    and transform of linalg.row_reduction, and the row of each monomial.
    The results are shared between calls and must not be mutated."""
    vac = Sector.untwisted(None)
    mod_sec = module.sector()
    gens: List[Tuple[FockVector, FockVector]] = []
    cols: List[FockVector] = []
    for wa in range(2, cutoff + 1):
        for apart in basis_at_degree(vac, Fraction(wa), parity=0):
            a = FockVector.basis(vac, apart)
            dmax = cutoff - wa - 1
            d = module.top_degree()
            while d <= dmax + module.top_degree():
                for upart in module.basis_at(d):
                    u = FockVector.basis(mod_sec, upart)
                    col = circ(a, u)
                    if not col.is_zero():
                        gens.append((a, u))
                        cols.append(col)
                d += Fraction(1)
    zero, one = Scalar.zero(mod_sec.s), Scalar.one(mod_sec.s)
    keys = sorted({p for c in cols for p in c.terms})
    rows = [[c.terms.get(p, zero) for c in cols] for p in keys]
    pivots, transform = linalg.row_reduction(rows, zero, one)
    return tuple(gens), pivots, transform, {p: i for i, p in enumerate(keys)}


def o_membership(v: FockVector, module: ModuleLabel, cutoff: int = 6) -> MembershipResult:
    """Decide whether v lies in the span of {a o u} with a running over the
    invariant vacuum-sector basis of weight <= cutoff and u over the module
    basis with wt(a) + deg(u) + 1 <= cutoff.

    The coordinates of v are multiplied by the stored transform; a member's
    combination is the solution with free variables zero (linalg.solve)."""
    if not module.contains(v):
        raise ValueError("vector does not lie in module %s" % module)
    gens, pivots, transform, index = _membership_columns(module, cutoff)
    if any(p not in index for p in v.terms):
        return MembershipResult(False)
    coords = [(index[p], c) for p, c in v.terms.items()]
    zero = Scalar.zero(module.sector().s)
    image = [sum((row[i] * c for i, c in coords), zero) for row in transform]
    if any(image[len(pivots):]):
        return MembershipResult(False)
    combo = [
        gens[col] + (c,) for col, c in zip(pivots, image) if not c.is_zero()
    ]
    return MembershipResult(True, combo)


# ----------------------------------------------------------------------
# descendant words to contraction polynomials


def descendant_to_poly(ms: Sequence[int], base_weight) -> MultiPoly:
    """Contraction polynomial of L(-m1)...L(-mk) applied to a lowest-weight
    generator of weight base_weight, in x = a_L and y = a_N.

    Each L(-n) on a vector of weight w contributes the factor
    (-1)^{n-1} (x - n*y - w)."""
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    acc = MultiPoly.const(1)
    for i, m in enumerate(ms):
        factor = x - y * m - base_weight - sum(ms[i + 1 :])
        acc = acc * (factor if m % 2 else -factor)
    return acc


def coords_to_polys(
    coords: Dict[virasoro.DescendantWord, Scalar],
    base_weights: Sequence,
    ngens: int,
) -> List[MultiPoly]:
    """Turn descendant coordinates into one contraction polynomial per
    generator: the sum of c * descendant_to_poly over its words.

    Raises ValueError on a coordinate that is not rational."""
    out = [MultiPoly() for _ in range(ngens)]
    for w, c in coords.items():
        if not c.is_rational():
            raise ValueError("non-rational descendant coordinate %s" % c)
        out[w.gen] = out[w.gen] + descendant_to_poly(w.ms, base_weights[w.gen]) * c.as_rat()
    return out
