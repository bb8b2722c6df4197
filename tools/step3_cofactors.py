"""Generate src/voaf/step3_cofactors.json, the ideal-membership
certificates of the step-3 infeasibility closures.

    python tools/step3_cofactors.py

For each closure of `voaf.step3.step3_closures`, with generators g_i and
distinctness factor D, it finds cofactors c_i of total degree at most
`degree` with sum(c_i * g_i) == D**k.  The coefficients of the c_i are the
unknowns of one exact linear system over Q, one equation per monomial,
solved by `voaf.linalg.solve`.  Its rows are Fractions with the int 0 for
a monomial a cofactor term does not reach; free unknowns are set to zero,
so the certificate is sparse.

The file maps each closure's name to {"k": k, "generators": the number of
g_i the certificate was made for, "cofactors": {i: c_i}}, one closure a
line, with only the nonzero c_i.  Each c_i is in MultiPoly's canonical form
(MultiPoly.to_data), a polynomial in the closure's two variables.  The
output is deterministic: running the script again rewrites the file byte
for byte.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from voaf import linalg, step3  # noqa: E402
from voaf.multipoly import VARS, MultiPoly  # noqa: E402

TARGET = ROOT / "src" / "voaf" / "step3_cofactors.json"

# closure name: (k, cofactor degree).  k is the smallest exponent with a
# certificate of degree <= 7, and the degree the smallest at that k.
DEGREES = {
    "groebner-main": (0, 1),
    "groebner-equal-pair": (1, 1),
    "groebner-special-t-1/2": (1, 4),
    "groebner-special-t-2": (1, 4),
    "groebner-special-t-9/2": (0, 1),
    "groebner-special-t-8": (0, 1),
}

Expo2 = Tuple[int, int]


def _in_variables(p: MultiPoly, variables: Tuple[str, str]) -> Dict[Expo2, Fraction]:
    slots = [VARS.index(v) for v in variables]
    out = {}
    for e, n in p.num.items():
        if any(k for i, k in enumerate(e) if i not in slots):
            raise ValueError("%s is not a polynomial in %s" % (p, variables))
        out[tuple(e[i] for i in slots)] = Fraction(n, p.den)
    return out


def solve_closure(
    variables: Tuple[str, str], gens: List[MultiPoly], dist: MultiPoly, k: int, degree: int
) -> Dict[int, MultiPoly]:
    """Cofactors c_i of degree <= `degree` with sum(c_i g_i) == dist**k;
    raises linalg.InconsistentSystem when there are none."""
    monos = [(a, total - a) for total in range(degree + 1) for a in range(total, -1, -1)]
    columns = [(i, m) for m in monos for i in range(len(gens))]
    gen_terms = [_in_variables(g, variables) for g in gens]
    target = _in_variables(dist**k, variables)
    equations: Dict[Expo2, Dict[int, Fraction]] = {e: {} for e in target}
    for col, (i, m) in enumerate(columns):
        for e, c in gen_terms[i].items():
            equations.setdefault((e[0] + m[0], e[1] + m[1]), {})[col] = c
    keys = sorted(equations)
    rows = [[equations[e].get(col, 0) for col in range(len(columns))] for e in keys]
    x = linalg.solve(rows, [target.get(e, 0) for e in keys])
    v1, v2 = map(MultiPoly.var, variables)
    out: Dict[int, MultiPoly] = {}
    for (i, (a, b)), c in zip(columns, x):
        if c:
            out[i] = out.get(i, MultiPoly()) + v1**a * v2**b * c
    return out


def render() -> str:
    """The text of the data file."""
    pt, q2 = step3.charged_triple_relations()
    lines = []
    for name, _, variables, gens, dist in step3.step3_closures(pt, q2):
        k, degree = DEGREES[name]
        cofactors = solve_closure(variables, gens, dist, k, degree)
        entry = {
            "k": k,
            "generators": len(gens),
            "cofactors": {str(i): cofactors[i].to_data() for i in sorted(cofactors)},
        }
        lines.append("%s: %s" % (json.dumps(name), json.dumps(entry, separators=(",", ":"))))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    TARGET.write_text(render(), encoding="utf-8")
    print("wrote %s" % TARGET.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
