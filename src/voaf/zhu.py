"""Zhu's associative-algebra products and the bimodule calculus.

For homogeneous a in the vacuum-charge sector acting on a module vector u:

    a * u = sum_i C(wt a, i) a_{i-1} u        (left product)
    u * a = sum_i C(wt a - 1, i) a_{i-1} u    (right product)
    a o u = sum_i C(wt a, i) a_{i-2} u        (generates O(M))

The quotient by O(M) is the bimodule controlling fusion; membership in
O(M) is decided by an exact linear solve against circle-product columns.
The generators of the bimodule are derived here on vectors, for
tools/relation_polys.py, which stores the systems that the fusion engine
reads, and for `voaf reduce`.
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

from . import characters, linalg, virasoro
from .fock import FockVector, Sector, basis_at_degree, parity_rows
from .labels import ModuleLabel
from .multipoly import MultiPoly
from .scalars import Scalar
from .vertexops import J_state, gen_binom, modes, weight


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
# bimodule generators

# degree of the relation element h(-3)h(-1)|0> above the vacuum
_RELATION_DEGREE = 4


def _h3h1() -> FockVector:
    """The quartic generator h(-3)h(-1)|0> of the relation element."""
    return FockVector.basis(Sector.untwisted(None), (Fraction(3), Fraction(1)))


def _primary_vectors(sector: Sector, degree: Fraction, parity: Optional[int]) -> List[FockVector]:
    """Basis of vectors of the given degree killed by L(1) and L(2), found
    over the theta-parity basis of fock.parity_rows: theta-even in a charged
    sector, and eliminated on rational rows."""
    parts = basis_at_degree(sector, degree, parity)
    lam = sector.lam_scalar() if sector.charged() else 1
    units = [lam if len(p) % 2 else 1 for p in parts]
    rows: List[list] = []
    for n in (1, 2):
        images = [virasoro.L(n, FockVector.basis(sector, p, u)) for p, u in zip(parts, units)]
        rows += parity_rows(images, sorted({q for img in images for q in img.terms}))
    kernel = linalg.nullspace(rows, len(parts))
    return [FockVector(sector, {p: c * u for p, c, u in zip(parts, vec, units)}) for vec in kernel]


def _extra_weights(label: ModuleLabel) -> List[Fraction]:
    """Lowest weights of the Virasoro primaries of the c = 1 decomposition
    above the top, up to the top weight plus the relation degree."""
    top = label.a_M()
    parts = characters.decomposition_weights(label, top + _RELATION_DEGREE)
    return [h for h, _ in parts if h > top]


@functools.cache
def _generators(label: ModuleLabel) -> Tuple[Tuple[FockVector, ...], int]:
    """The expansion generators of the module and how many of them, as a
    prefix, generate the bimodule.

    The expansion generators are the top vector and the primaries at each
    weight of the decomposition strictly below the top weight plus the
    relation degree: the relation element multiplied onto the top vector
    expands in their Virasoro descendants whenever it expands at all.  The
    bimodule generators are the shortest prefix whose Virasoro span holds
    J_n(top), n = 1, 2, 3; a prefix's words come first and take the pivots
    first, so it ends at the last generator with a nonzero coordinate in
    them.  Those images lie 2, 1 and 0 above the top, so J is applied only
    when a primary lies at most 2 above it.
    """
    sector, parity = label.sector(), label.parity()
    top = label.top_vector()
    gens = [top]
    for h in _extra_weights(label):
        if h < label.a_M() + _RELATION_DEGREE:
            degree = h - sector.weight_offset_rat()
            gens.extend(_primary_vectors(sector, degree, parity))
    ngens = 1
    if any(g.max_degree() <= top.max_degree() + 2 for g in gens[1:]):
        images = modes(J_state(), (1, 2, 3), top)
        try:
            coords = [virasoro.express_in_descendants(img, gens) for img in images]
        except virasoro.NotInSpan:
            raise RuntimeError("the generators of %s do not span J_n(top)" % label)
        ngens = 1 + max((w.gen for c in coords for w in c), default=0)
    return tuple(gens), ngens


def generator_set(label: ModuleLabel) -> List[FockVector]:
    """Generators of the bimodule attached to the module: the top vector,
    followed by the primaries that J_n(top), n = 1, 2, 3, needs beyond its
    Virasoro span (one at s = 1/2 and in the odd twisted module)."""
    gens, ngens = _generators(label)
    return list(gens[:ngens])


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
    keys = sorted({p for c in cols for p in c.terms})
    pivots, transform = linalg.row_reduction(parity_rows(cols, keys))
    return tuple(gens), pivots, transform, {p: i for i, p in enumerate(keys)}


def o_membership(v: FockVector, module: ModuleLabel, cutoff: int = 6) -> MembershipResult:
    """Decide whether v lies in the span of {a o u} with a running over the
    invariant vacuum-sector basis of weight <= cutoff and u over the module
    basis with wt(a) + deg(u) + 1 <= cutoff.

    v's parity_rows are multiplied by the stored transform; a member's
    combination is the solution with free variables zero (linalg.solve)."""
    if not module.contains(v):
        raise ValueError("vector does not lie in module %s" % module)
    gens, pivots, transform, index = _membership_columns(module, cutoff)
    if any(p not in index for p in v.terms):
        return MembershipResult(False)
    coords = [(index[p], c) for p, (c,) in zip(v.terms, parity_rows([v], list(v.terms)))]
    image = [sum(row[i] * c for i, c in coords if row[i]) for row in transform]
    if any(image[len(pivots):]):
        return MembershipResult(False)
    combo = [gens[col] + (c,) for col, c in zip(pivots, image) if c]
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
