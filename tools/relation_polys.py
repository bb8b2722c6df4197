"""Generate src/voaf/relation_polys.json, the star, circle and second
circle relations of a charged module as polynomials in x, y, z and s = lam^2,
and src/voaf/systems.json, the constraint systems of the modules that those
relations do not cover.

    python tools/relation_polys.py

A relation a * v or a o v, for a = h(-3)h(-1)|0> or h(-2)^2|0> and the top
vector v = e^lam of M(1, lam), expands in the Virasoro descendants
L(-w) v = L(-w_1)...L(-w_m) v with coordinates c_w, rational functions of
lam.  Its contraction is sum_w c_w * zhu.descendant_to_poly(w, s/2).  The
script samples the c_w at rational s and interpolates them in s; no
rational-function arithmetic in lam is needed.

The degree bound.  Fix a level d >= 0 and let A(lam) be the matrix of the
words w |- d applied to v in the Fock basis h(-mu) v, mu |- d, and b(lam)
the Fock coordinates of the relation's level-d component, so A c = b.

- Each L(-n) = (1/2) sum_k :h(-n-k) h(k): contributes at most one factor
  h(0) = lam, so the column of w has lam-degree <= m(w), the length of w.
  The modes of Y(a, z) are quadratic in h, so b has lam-degree <= 2.
- The Fock form with h(n)^T = h(-n) is diagonal and independent of lam,
  and L(n)^T = L(-n), so A^T G A is the Shapovalov form at h = s/2, c = 1.
  By the Kac determinant formula, det(A)^2 = kappa * K_d(s) with kappa a
  nonzero rational and K_d(s) = prod_{r,q >= 1, rq <= d} (s - (r-q)^2/2)
  ^ p(d - rq) = s^e_0 prod_{k >= 1} (s - k^2/2)^e_k, of degree
  N(d) = sum_{mu |- d} len(mu).  For k >= 1 the pairs (r, q) and (q, r)
  make e_k even, and s - k^2/2 = lam^2 - k^2/2 is irreducible over Q, so
  det(A) = c lam^e_0 prod_{k >= 1} (s - k^2/2)^(e_k/2) with c rational.
- The automorphism theta with lam -> -lam fixes the L(n) and Y(a, z) for
  theta-even a, so c_w is even in lam (the rule of fock.parity_rows).
- By Cramer, c_w = det(A_w) / det(A), with column w replaced by b, and
  det(A_w) has lam-degree <= N(d) - m(w) + 2.  Let M_d(s) = s^ceil(e_0/2)
  prod_{k >= 1} (s - k^2/2)^(e_k/2), of degree H(d) = (N(d) + e)/2 with
  e = e_0 mod 2.  Then M_d(s) c_w = det(A_w) lam^e / c is a polynomial in
  lam of degree <= N(d) - m(w) + 2 + e, even, so of degree <= H(d) + 1 in
  s.

M_d divides M_D for d <= D, since e_k grows with the level, so with D the
top level of the relation every M_D(s) c_w is a polynomial in s of degree
at most H(D) + 1.  The script samples each c_w at H(D) + 3 integers s that
are neither squares nor twice squares: M_D(s) != 0 there and Q(sqrt(s)) is
a field, in which it checks that c_w has no lam-odd part.  It interpolates
M_D(s) c_w through all of them and fails unless the result has degree at
most H(D) + 1, so one point beyond the H(D) + 2 that fix it checks it.

The pair sum_w M_D c_w * descendant_to_poly(w, s/2) over M_D(s) is then
reduced: each factor s - k^2/2 of M_D is cancelled while the numerator is
divisible by it (MultiPoly.try_divide), which leaves a monic denominator.
The star relation is stored as (head * den + 9 * num, den), with head the
contraction z - 4x^2 - 17x of J - 4 omega*omega - 17 omega.

The file maps each relation's name to its pair [numerator, denominator],
one relation a line.

The relations hold for every charge whose decomposition has no Virasoro
primary above the top within the relation degree; a charged module there
has one generator and one column.  The other modules are the four
uncharged ones and the charges s = n^2/2 whose first primary, n + 1 above
the top, lies within it: n = 1, 2, 3.  For each of these systems.json holds
one line: the bimodule generator count `ngens` (zhu._generators), the sign
of each expansion generator's column under the anti-involution, and the
rows by name, one contraction polynomial per column, each standing for
itself and its mirror.  The star row is the quartic relation multiplied
onto the top vector, expanded in the generators' descendants, where it lies
in their span; the singular-vector row is fusion._singular_row_poly, the
Benoit-Saint-Aubin closed form, where the top weight is a quarter-square.

Each polynomial is in MultiPoly's canonical form (MultiPoly.to_data).  The
output is deterministic: running the script again rewrites both files byte
for byte.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from voaf import fusion, virasoro, zhu  # noqa: E402
from voaf.fock import FockVector, Sector  # noqa: E402
from voaf.labels import ModuleLabel, mlam, mminus, mplus, mtheta_minus, mtheta_plus  # noqa: E402
from voaf.multipoly import MultiPoly  # noqa: E402
from voaf.scalars import Scalar, interpolate, rational_sqrt  # noqa: E402

DATA = ROOT / "src" / "voaf"

_S = MultiPoly.var("s")
_H22 = FockVector.basis(Sector.untwisted(None), (2, 2))

Relation = Callable[[FockVector], FockVector]
RELATIONS: Tuple[Tuple[str, Relation], ...] = (
    ("star", lambda v: zhu.star_left(zhu._h3h1(), v)),
    ("circle", lambda v: zhu.circ(zhu._h3h1(), v)),
    ("second-circle", lambda v: zhu.circ(_H22, v)),
)


def _relation_head() -> MultiPoly:
    """Contraction of J - 4*omega*omega - 17*omega on the generator column.

    J and omega act on the generator class through the top-weight
    coordinates z = b and x = a, giving z - 4x^2 - 17x.
    """
    x, z = MultiPoly.var("x"), MultiPoly.var("z")
    return z - x * x * 4 - x * 17


def kac_roots(level: int) -> Dict[Fraction, int]:
    """The roots (r-q)^2/2 of K_level(s), with their multiplicities."""
    out: Dict[Fraction, int] = {}
    for r in range(1, level + 1):
        for q in range(1, level // r + 1):
            root = Fraction((r - q) ** 2, 2)
            out[root] = out.get(root, 0) + len(virasoro.words_at_level(0, level - r * q))
    return out


def charges() -> Iterator[Fraction]:
    """The integers s >= 3 that are neither squares nor twice squares."""
    s = 3
    while True:
        if rational_sqrt(s) is None and rational_sqrt(2 * s) is None:
            yield Fraction(s)
        s += 1


def coordinates(rel: Relation, s: Fraction) -> Dict[Tuple[int, ...], Fraction]:
    """The descendant coordinates of rel(v) on the top vector v of M(s), by
    word; a ValueError when one has a lam-odd part."""
    v = FockVector.basis(Sector.untwisted(s))
    out = {}
    for w, c in virasoro.express_in_descendants(rel(v), [v]).items():
        if not c.is_rational():
            raise ValueError("coordinate %s of %s at s = %s is odd in lam" % (c, w, s))
        out[w.ms] = c.as_rat()
    return out


def contraction(rel: Relation) -> Tuple[MultiPoly, MultiPoly]:
    """The reduced (numerator, denominator) of the contraction of rel(v)."""
    points = charges()
    first = next(points)
    samples = [(first, coordinates(rel, first))]
    level = max(sum(ms) for ms in samples[0][1])
    roots = {root: (e + 1) // 2 for root, e in kac_roots(level).items()}
    bound = sum(roots.values()) + 1
    samples += [(s, coordinates(rel, s)) for s, _ in zip(points, range(bound + 1))]
    xs = [s for s, _ in samples]
    mults = [math.prod((s - root) ** e for root, e in roots.items()) for s in xs]
    num = MultiPoly()
    for ms in sorted({ms for _, coords in samples for ms in coords}):
        poly = interpolate(xs, [m * coords.get(ms, 0) for m, (_, coords) in zip(mults, samples)])
        if len(poly) > bound + 1:
            raise RuntimeError("coordinate of %s exceeds the degree bound %d" % (ms, bound))
        in_s = sum((_S**k * c for k, c in enumerate(poly)), MultiPoly())
        num = num + in_s * zhu.descendant_to_poly(ms, _S * Fraction(1, 2))
    den = MultiPoly.const(1)
    for root, e in sorted(roots.items()):
        factor = _S - root
        while e:
            quotient = num.try_divide(factor)
            if quotient is None:
                break
            num, e = quotient, e - 1
        den = den * factor**e
    return num, den


def expand_in_generators(
    v: FockVector, gens: Sequence[FockVector]
) -> Tuple[Dict[virasoro.DescendantWord, Scalar], List[MultiPoly]]:
    """v's descendant coordinates over the generators and their contraction
    polynomials, one per generator; ValueError on a coordinate with a lam
    part, which a theta-even v's never has (fock.parity_rows)."""
    coords = virasoro.express_in_descendants(v, gens)
    base_weights = [v.sector.weight_offset_rat() + g.max_degree() for g in gens]
    return coords, zhu.coords_to_polys(coords, base_weights, len(gens))


def _star_row_polys(label: ModuleLabel) -> List[MultiPoly]:
    """Contraction polynomials (one per expansion generator) of the quartic
    relation element multiplied onto the top vector.  Raises
    virasoro.NotInSpan when the relation is not in the generators' span."""
    gens = zhu._generators(label)[0]
    _, polys = expand_in_generators(zhu.star_left(zhu._h3h1(), gens[0]), gens)
    cols = [p * 9 for p in polys]
    cols[0] = cols[0] + _relation_head()
    return cols


def fixed_labels() -> List[ModuleLabel]:
    """The modules that systems.json holds: the uncharged ones, then
    M(n^2/2) for n = 1, 2, ... while its decomposition has a primary above
    the top within the relation degree (the first lies n + 1 above it)."""
    out = [mplus(), mminus(), mtheta_plus(), mtheta_minus()]
    n = 1
    while zhu._extra_weights(mlam(Fraction(n * n, 2))):
        out.append(mlam(Fraction(n * n, 2)))
        n += 1
    return out


def system(label: ModuleLabel) -> dict:
    """The systems.json entry of the module: ngens, signs and rows."""
    gens, ngens = zhu._generators(label)
    degs = [g.max_degree() for g in gens]
    rows = {}
    try:
        rows["star"] = _star_row_polys(label)
    except virasoro.NotInSpan:
        pass
    sing = fusion._singular_row_poly(label)
    if sing is not None:
        rows["singular-vector"] = [sing] + [MultiPoly()] * (len(gens) - 1)
    return {
        "ngens": ngens,
        "signs": [(-1) ** int(d - degs[0]) for d in degs],
        "rows": {name: [p.to_data() for p in polys] for name, polys in rows.items()},
    }


def _lines(entries) -> str:
    """A JSON object with one (name, value) entry a line."""
    lines = [
        "%s: %s" % (json.dumps(name), json.dumps(value, separators=(",", ":")))
        for name, value in entries
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def render_relations() -> str:
    """The text of relation_polys.json."""
    pairs = []
    for name, rel in RELATIONS:
        num, den = contraction(rel)
        if name == "star":
            num = _relation_head() * den + num * 9
        pairs.append((name, [num.to_data(), den.to_data()]))
    return _lines(pairs)


def render_systems() -> str:
    """The text of systems.json."""
    return _lines((str(label), system(label)) for label in fixed_labels())


RENDERS = {"relation_polys.json": render_relations, "systems.json": render_systems}


def main() -> int:
    for name, render in RENDERS.items():
        target = DATA / name
        target.write_text(render(), encoding="utf-8")
        print("wrote %s" % target.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
