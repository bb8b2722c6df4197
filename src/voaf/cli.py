"""Command-line surface: verification suites, fusion tables, characters,
and ad-hoc reduction to descendant coordinates.

The verify suites and the table41 recomputation live in `voaf.suites`,
and the state grammar of `reduce` in `voaf.reduce`; the subcommands that
run them import them on first use.

Exit codes: 0 success, 1 verification failure or a closed output pipe,
2 usage error, 3 inconclusive (no argument decided a fusion rule).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import Check, _cutoff, characters, fusion
# loads zhu and vertexops, which bench/tracer.py wraps, until ROADMAP item 7
from . import zhu  # noqa: F401
from .labels import ModuleLabel
from .scalars import parse_rational


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
        import json

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
        import json

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
    from . import reduce

    print(reduce.report(args.module, args.expr))
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
