"""Generate src/voaf/relation_polys.json, the star, circle and second
circle relations of a charged module as polynomials in x, y, z and s = lam^2.

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
- The automorphism h(n) -> -h(n), e^lam -> e^(-lam) fixes the L(n) and
  Y(a, z) for theta-even a, so c_w is even in lam.
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
one relation a line.  Each polynomial is in MultiPoly's canonical form
[den, [[exponents, num], ...]]: a positive int denominator prime to the
int numerators, one exponent per variable of `voaf.multipoly.VARS`, terms
sorted by exponents.  The output is deterministic: running the script
again rewrites the file byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from voaf import fusion, virasoro, zhu  # noqa: E402
from voaf.fock import FockVector, Sector  # noqa: E402
from voaf.multipoly import MultiPoly  # noqa: E402
from voaf.scalars import interpolate, rational_sqrt  # noqa: E402

TARGET = ROOT / "src" / "voaf" / "relation_polys.json"

_S = MultiPoly.var("s")
_H22 = FockVector.basis(Sector.untwisted(None), (2, 2))

Relation = Callable[[FockVector], FockVector]
RELATIONS: Tuple[Tuple[str, Relation], ...] = (
    ("star", lambda v: zhu.star_left(fusion._h3h1(), v)),
    ("circle", lambda v: zhu.circ(fusion._h3h1(), v)),
    ("second-circle", lambda v: zhu.circ(_H22, v)),
)


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


def canonical(p: MultiPoly) -> list:
    """MultiPoly's canonical form [den, [[exponents, num], ...]] of p."""
    return [p.den, [[list(e), n] for e, n in sorted(p.num.items())]]


def render() -> str:
    """The text of the data file."""
    lines = []
    for name, rel in RELATIONS:
        num, den = contraction(rel)
        if name == "star":
            num = fusion._relation_head() * den + num * 9
        pair = json.dumps([canonical(num), canonical(den)], separators=(",", ":"))
        lines.append("%s: %s" % (json.dumps(name), pair))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    TARGET.write_text(render(), encoding="utf-8")
    print("wrote %s" % TARGET.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
