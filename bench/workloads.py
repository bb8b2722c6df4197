"""Seeded command lists for the three workloads.

A workload is a list of `voaf` argument vectors in two groups: the batch
commands (one `fusion-table`, or the verification suites) and the single
commands (cold `fusion` queries, or `char` series; none on the wide grid).  Every command runs in
a fresh process, as a user at the shell would run it.  Each generator checks
the invariant that makes its workload stress the layer it was chosen for,
so a new seed cannot silently move the work to another layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import oracle

STD_GRID = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(9, 2), Fraction(8), Fraction(5)]

# Squarefree multipliers other than 1 and 2: 2c is never a rational square,
# and two distinct ones never multiply to a square.
WIDE_KERNELS = [3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22]
# One fixed multiset of square factors, shuffled per seed, so that every
# seed's grid has the same spread of numerator and denominator sizes.
WIDE_ROOTS = [Fraction(n, d) for n, d in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, 3))] * 2

# The singular-ladder charges of the standard grid's closure, cheapest first;
# a fixed multiset keeps the cost of the query batch the same for every seed.
STD_LADDER_QUERIES = [Fraction(25, 2), Fraction(25, 2), Fraction(18), Fraction(18), Fraction(49, 2), Fraction(32)]
STD_CHEAP_QUERIES = 4

VERIFY_SUITES = ["characters", "zhu", "virasoro", "twisted", "step3"]
CHAR_FIXED = [("M+", 32), ("Mtheta", 22)]
CHAR_CHARGED_CUTOFF = 24


@dataclass
class Command:
    argv: List[str]
    group: str  # "batch" or "single"
    kind: str  # "table", "query", "verify" or "char"
    # for a query: the slot whose constraint system must decide it
    ladder_slot: Optional[str] = None
    grid: List[Fraction] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    commands: List[Command]


class InvariantError(RuntimeError):
    """A generated workload does not stress the layer it was chosen for."""


def _require(ok: bool, what: str):
    if not ok:
        raise InvariantError(what)


def _query(m: str, n: str, l: str, ladder_slot: Optional[str] = None) -> Command:
    argv = ["fusion", "--m", m, "--n", n, "--l", l, "--certificate"]
    return Command(argv, "single", "query", ladder_slot=ladder_slot)


def std_grid(seed: int) -> Workload:
    rnd = random.Random(seed)
    closed = oracle.closure(STD_GRID)
    _require(all(s in closed and s not in STD_GRID for s in oracle.LADDER), "ladder outside closure")
    table = Command(
        ["fusion-table", "--lambda-squares", ",".join(str(s) for s in STD_GRID)],
        "batch", "table", grid=list(STD_GRID),
    )
    # The ladder charge sits in the first slot and the other two labels
    # carry no M+/M-, so the first arrangement tried is the ladder charge's
    # own constraint system, built cold in that process.
    partners = [oracle.label(s) for s in STD_GRID] + list(oracle.TWISTED)
    queries = []
    for s in STD_LADDER_QUERIES:
        while True:
            n, l = rnd.choice(partners), rnd.choice(partners)
            if oracle.fusion_verdict(oracle.label(s), n, l) == 0:
                break
        queries.append(_query(oracle.label(s), n, l, ladder_slot="m"))
    cheap = ["M+", "M-"] + [oracle.label(s) for s in closed if s not in oracle.LADDER] + list(oracle.TWISTED)
    for _ in range(STD_CHEAP_QUERIES):
        queries.append(_query(*(rnd.choice(cheap) for _ in range(3))))
    rnd.shuffle(queries)
    ladder = sum(1 for q in queries if q.ladder_slot)
    _require(2 * ladder >= len(queries), "fewer than half of the queries force a ladder build")
    return Workload("std_grid", [table] + queries)


def wide_grid_charges(seed: int) -> List[Fraction]:
    rnd = random.Random(seed)
    kernels = rnd.sample(WIDE_KERNELS, len(WIDE_ROOTS))
    roots = list(WIDE_ROOTS)
    rnd.shuffle(roots)
    grid = [c * r * r for c, r in zip(kernels, roots)]
    closed = oracle.closure(grid)
    _require(all(oracle.rational_sqrt(2 * s) is None for s in closed),
             "a charge of the wide grid or its closure has a singular vector")
    # Only s + s closes, to 4s: the closure grows, and by a fixed amount.
    _require(sorted(closed) == sorted(set(grid) | {4 * s for s in grid}),
             "wide grid closure is not the grid plus its 4s")
    return grid


def wide_grid(seed: int) -> Workload:
    grid = wide_grid_charges(seed)
    table = Command(
        ["fusion-table", "--lambda-squares", ",".join(str(s) for s in grid), "--format", "json"],
        "batch", "table", grid=grid,
    )
    return Workload("wide_grid", [table])


def verify_char(seed: int) -> Workload:
    rnd = random.Random(seed)
    suites = list(VERIFY_SUITES)
    rnd.shuffle(suites)
    cmds = [Command(["verify", "--suite", s, "--verbose"], "batch", "verify") for s in suites]
    # exponents must stay on the 1/48 grid, so s/2 - 1/24 needs s in (1/24)Z
    den = rnd.choice([1, 2, 3, 4, 6, 8, 12, 24])
    s = Fraction(rnd.randint(1, 4 * den - 1), den)
    chars = CHAR_FIXED + [(oracle.label(s), CHAR_CHARGED_CUTOFF)]
    for module, cutoff in chars:
        cmds.append(Command(["char", "--module", module, "--cutoff", str(cutoff), "--json"], "single", "char"))
    return Workload("verify_char", cmds)


GENERATORS = {"std_grid": std_grid, "wide_grid": wide_grid, "verify_char": verify_char}
