"""The `voaf reduce` subcommand: a state written in the Fock-monomial
grammar, its Virasoro descendant coordinates over the module's generators,
and their contraction polynomials.  The command line imports this module
only when `reduce` runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from . import fusion, virasoro, zhu
from .fock import FockVector, Sector
from .labels import ModuleLabel
from .scalars import Scalar, parse_rational


_TOKEN = re.compile(
    r"\s*(h\(\s*-\s*(\d+(?:/\d+)?)\s*\)|\|0>|e\^lam|1theta|lam|\d+/\d+|\d+|[+\-*])"
)
# the kind of each token but the modes h(-k) and the rationals
_KINDS = {"|0>": "terminal", "e^lam": "terminal", "1theta": "terminal", "lam": "lam"}
_KINDS.update(dict.fromkeys("+-*", "op"))


def parse_state(text: str, sector: Sector) -> FockVector:
    """Parse a sum of scalar-prefixed creation-mode monomials.

    Grammar: terms joined by + or -; each term is an optional scalar prefix
    (a rational, `lam`, or rational * lam) followed by h(-k) factors and a
    terminal |0>, e^lam, or 1theta.
    """
    pos = 0
    tokens: List[Tuple[str, str]] = []
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("cannot tokenize state text at %r" % text[pos:])
        tok, depth, pos = m.group(1), m.group(2), m.end()
        tokens.append(("mode", depth) if depth else (_KINDS.get(tok, "rat"), tok))
    if not tokens:
        raise ValueError("empty state expression (the grammar needs at least one term)")
    want = "1theta" if sector.twisted else ("|0>" if sector.s is None else "e^lam")
    total = FockVector.zero(sector)
    i = 0
    while i < len(tokens):
        sign = Fraction(1)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff = Scalar.of(sign)
        parts: List[Fraction] = []
        terminal = None
        while i < len(tokens) and terminal is None:
            kind, val = tokens[i]
            if kind == "rat":
                coeff = coeff * Scalar.of(parse_rational(val))
            elif kind == "lam":
                coeff = coeff * Scalar.lam(sector.s)
            elif kind == "mode":
                parts.append(parse_rational(val))
            elif kind == "terminal":
                terminal = val
            elif kind == "op" and val == "*":
                pass
            else:
                break
            i += 1
        if terminal is None:
            raise ValueError("term missing its terminal (|0>, e^lam, 1theta)")
        if i < len(tokens) and tokens[i] not in (("op", "+"), ("op", "-")):
            raise ValueError("terms must be joined by + or -, found %r" % tokens[i][1])
        if terminal != want:
            raise ValueError(
                "terminal %r does not match the module's sector (wants %r)"
                % (terminal, want)
            )
        for k in parts:
            if not sector.depth_ok(k):
                raise ValueError("mode depth %s is not legal in this sector" % k)
        v = FockVector.basis(sector, parts)
        total = total + v.scale(coeff)
    return total


def report(module: str, expr: str) -> str:
    """The text `voaf reduce --module MODULE --expr EXPR` prints: the
    descendant coordinates of the state over the module's generators and
    each generator's contraction polynomial.  Bad input is a ValueError."""
    label = ModuleLabel.parse(module)
    sector = label.sector()
    v = parse_state(expr, sector)
    if not label.contains(v):
        raise ValueError("state does not lie in module %s" % label)
    gens = fusion.generator_set(label)
    try:
        coords = fusion.descendant_coordinates(v, gens)
    except virasoro.NotInSpan:
        raise ValueError("state is not a Virasoro descendant of the module generators")
    lines = ["coordinates:"]
    for w in sorted(coords, key=lambda w: (w.gen, sum(w.ms), w.ms)):
        name = "".join("L(-%d)" % m for m in w.ms) if w.ms else "1"
        lines.append("  gen%d %s: %s" % (w.gen, name, coords[w]))
    lines.append("contraction polynomials:")
    # each generator's contraction P0 + lam*P1, from the rational and the lam
    # parts of its coordinates
    weights = [sector.weight_offset_rat() + g.max_degree() for g in gens]
    rational = {w: Scalar(c.a0, 0, c.d, None) for w, c in coords.items()}
    lam_part = {w: Scalar(c.a1, 0, c.d, None) for w, c in coords.items()}
    p0s = zhu.coords_to_polys(rational, weights, len(gens))
    p1s = zhu.coords_to_polys(lam_part, weights, len(gens))
    for i, (p0, p1) in enumerate(zip(p0s, p1s)):
        if not p1:
            lines.append("  gen%d: %s" % (i, p0))
        elif not p0:
            lines.append("  gen%d: lam*(%s)" % (i, p1))
        else:
            lines.append("  gen%d: %s + lam*(%s)" % (i, p0, p1))
    return "\n".join(lines)
