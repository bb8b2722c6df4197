"""Command-line surface: verification suites, fusion tables, characters,
and ad-hoc reduction to descendant coordinates.

The verify suites and the table41 recomputation live in `voaf.suites`,
which the subcommands that run them import on first use.

Exit codes: 0 success, 1 verification failure or a closed output pipe,
2 usage error, 3 inconclusive (no argument decided a fusion rule).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import Check, _cutoff, characters, fusion, virasoro, zhu
from .fock import FockVector, Sector
from .labels import ModuleLabel
from .scalars import Scalar, parse_rational


# ----------------------------------------------------------------------
# state-text parsing


_TOKEN = re.compile(
    r"\s*(h\(\s*-\s*(\d+(?:/\d+)?)\s*\)|\|0>|e\^lam|1theta|lam|\d+/\d+|\d+|[+\-*])"
)


def parse_state(text: str, sector: Sector) -> FockVector:
    """Parse a sum of scalar-prefixed creation-mode monomials.

    Grammar: terms joined by + or -; each term is an optional scalar prefix
    (a rational, `lam`, or rational * lam) followed by h(-k) factors and a
    terminal |0>, e^lam, or 1theta.
    """
    pos = 0
    tokens: List[Tuple[str, str]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError("cannot tokenize state text at %r" % text[pos:])
        tok = m.group(1)
        if tok.startswith("h("):
            tokens.append(("mode", m.group(2)))
        elif tok in ("|0>", "e^lam", "1theta"):
            tokens.append(("terminal", tok))
        elif tok == "lam":
            tokens.append(("lam", tok))
        elif tok in "+-*":
            tokens.append(("op", tok))
        else:
            tokens.append(("rat", tok))
        pos = m.end()
    if not tokens:
        raise ValueError("empty state expression (the grammar needs at least one term)")
    mod = sector.s
    want = "1theta" if sector.twisted else ("|0>" if sector.s is None else "e^lam")
    total = FockVector.zero(sector)
    i = 0
    while i < len(tokens):
        sign = Fraction(1)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff = Scalar.of(sign, mod)
        parts: List[Fraction] = []
        terminal = None
        while i < len(tokens) and terminal is None:
            kind, val = tokens[i]
            if kind == "rat":
                coeff = coeff * Scalar.of(parse_rational(val), mod)
            elif kind == "lam":
                coeff = coeff * Scalar.lam(mod)
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


# ----------------------------------------------------------------------
# verification suites, forwarded to `voaf.suites`


def suite_characters() -> List[Check]:
    # a bench/tracer.py TARGETS entry until ROADMAP item 7
    from . import suites
    return suites.suite_characters()


def suite_zhu() -> List[Check]:
    # a bench/tracer.py TARGETS entry until ROADMAP item 7
    from . import suites
    return suites.suite_zhu()


def suite_virasoro() -> List[Check]:
    # a bench/tracer.py TARGETS entry until ROADMAP item 7
    from . import suites
    return suites.suite_virasoro()


def suite_twisted() -> List[Check]:
    # a bench/tracer.py TARGETS entry until ROADMAP item 7
    from . import suites
    return suites.suite_twisted()


def suite_fusion() -> List[Check]:
    # untraced; forwarded like the others so that _SUITES is uniform
    from . import suites
    return suites.suite_fusion()


def suite_step3() -> List[Check]:
    # a bench/tracer.py TARGETS entry until ROADMAP item 7
    from . import suites
    return suites.suite_step3()


_SUITES: List[Tuple[str, Callable[[], List[Check]]]] = [
    ("characters", suite_characters),
    ("zhu", suite_zhu),
    ("virasoro", suite_virasoro),
    ("twisted", suite_twisted),
    ("fusion", suite_fusion),
    ("step3", suite_step3),
]


# ----------------------------------------------------------------------
# subcommands


def _cmd_table41(args) -> int:
    from . import suites

    rows, ok = suites.table41_rows()
    if args.json:
        print(
            json.dumps(
                {"rows": [{"module": m, "a": a, "b": b} for m, a, b in rows], "verified": ok},
                sort_keys=True,
            )
        )
    else:
        width = max(len(r[0]) for r in rows)
        print("%-*s  %-10s %s" % (width, "module", "a_M", "b_M"))
        for m, a, b in rows:
            print("%-*s  %-10s %s" % (width, m, a, b))
    if not ok:
        print("FAIL: recomputed eigenvalues disagree with the stored table", file=sys.stderr)
        return 1
    return 0


def _cmd_char(args) -> int:
    cutoff = Fraction(_cutoff(args.cutoff, 20))
    module = args.module.strip()
    if module != "Mtheta":
        module = ModuleLabel.parse(module)
    series = characters.graded_dimension(module, cutoff)
    if args.json:
        print(
            json.dumps(
                {"module": str(module), "cutoff": str(cutoff), "terms": series.to_json()},
                sort_keys=True,
            )
        )
    else:
        print(series)
    return 0


def _cmd_fusion(args) -> int:
    m = ModuleLabel.parse(args.m)
    n = ModuleLabel.parse(args.n)
    l = ModuleLabel.parse(args.l)
    cert = fusion.decide(m, n, l)
    if args.certificate:
        print(cert.to_json())
    else:
        print("N(%s, %s; %s) = %d" % (m, n, l, cert.verdict))
    return 0


def _cmd_fusion_table(args) -> int:
    entries = args.lambda_squares.split(",")
    if not all(e.strip() for e in entries):
        raise ValueError("empty entry in --lambda-squares %r" % args.lambda_squares)
    squares = [parse_rational(e) for e in entries]
    certs = fusion.full_table(squares)
    if args.format == "json":
        print(fusion.table_to_json(certs))
    else:
        sys.stdout.write(fusion.table_to_csv(certs))
    return 0


def _cmd_reduce(args) -> int:
    label = ModuleLabel.parse(args.module)
    sector = label.sector()
    v = parse_state(args.expr, sector)
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
    print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    names = [n for n, _ in _SUITES] if args.suite == "all" else [args.suite]
    failed: Optional[Check] = None
    for name in names:
        fn = dict(_SUITES)[name]
        checks = fn()
        for cname, ok, detail in checks:
            status = "ok" if ok else "FAIL"
            line = "%s [%s] %s" % (status, name, cname)
            if detail and (not ok or args.verbose):
                line += " -- " + detail
            print(line)
            if not ok and failed is None:
                failed = (cname, ok, detail)
    if failed:
        print("first failure: %s -- %s" % (failed[0], failed[2]), file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its subparsers, whose usage
    errors are one stderr line."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="voaf",
        description="Exact computations for the rank-one even-boson orbifold algebra.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table41", help="recompute the lowest-weight table")
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=_cmd_table41)

    c = sub.add_parser("char", help="graded character of a module")
    c.add_argument("--module", required=True, help="M+, M-, M(s=p/q), Mtheta+, Mtheta-, or Mtheta")
    c.add_argument("--cutoff", type=int, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_char)

    f = sub.add_parser("fusion", help="decide one fusion rule")
    f.add_argument("--m", required=True)
    f.add_argument("--n", required=True)
    f.add_argument("--l", required=True)
    f.add_argument("--certificate", action="store_true")
    f.set_defaults(fn=_cmd_fusion)

    ft = sub.add_parser("fusion-table", help="full fusion table over a charge grid")
    ft.add_argument(
        "--lambda-squares", required=True, help="comma-separated rationals p/q"
    )
    ft.add_argument("--format", choices=("csv", "json"), default="csv")
    ft.set_defaults(fn=_cmd_fusion_table)

    r = sub.add_parser("reduce", help="descendant coordinates of a state")
    r.add_argument("--module", required=True)
    r.add_argument("--expr", required=True)
    r.set_defaults(fn=_cmd_reduce)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument(
        "--suite",
        required=True,
        choices=[n for n, _ in _SUITES] + ["all"],
    )
    v.add_argument("--verbose", action="store_true")
    v.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (`voaf ... | head`): send the rest of the
        # output, and the flush at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except fusion.Inconclusive as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
