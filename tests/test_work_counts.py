"""Deterministic work counts of the engine, pinned as data.

A wall-clock time on a shared host drifts by tens of percent; an
algorithmic regression (an evaluation repeated, a cache that stops
sharing) shows first as a count.  Each request runs in a fresh
interpreter, so no cache of this test process hides work, under two hash
seeds, so no count may depend on the iteration order of a set or dict.
The counters wrap the engine's functions with a plain closure.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_COUNT = textwrap.dedent(
    """
    import io, json, sys
    from contextlib import redirect_stdout
    import voaf.cli
    from voaf import linalg, virasoro
    from voaf.fusion import ConstraintSystem
    from voaf.multipoly import MultiPoly, Point
    from voaf.scalars import Scalar

    counts = {}

    def counted(owner, name, key, weight=lambda *args: 1):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + weight(*args)
            return real(*args, **kwargs)

        setattr(owner, name, wrapper)

    counted(MultiPoly, "evaluate", "evaluate")
    counted(Point, "build_vector", "build_vector")
    counted(linalg, "rank", "rank")
    counted(linalg, "_rref", "rref")
    # the rows x columns that each elimination reduces
    counted(linalg, "_rref", "rref_cells", lambda a, ncols, *rest: len(a) * ncols)
    counted(virasoro, "L", "L")
    counted(virasoro, "express_in_descendants", "express")
    counted(MultiPoly, "subs", "subs")
    counted(MultiPoly, "try_divide", "try_divide")
    counted(Scalar, "__init__", "scalars")
    # one construction per constraint-system cache miss
    counted(ConstraintSystem, "__init__", "systems")
    out = io.StringIO()
    with redirect_stdout(out):
        assert voaf.cli.main(sys.argv[1:]) == 0
    counts["output_lines"] = out.getvalue().count("\\n")
    print(json.dumps(counts, sort_keys=True))
    """
)

# fusion-table on four generic charges: 6 base labels by 6 by 8 targets
# (the closure adds 4s for each s), 768 triples.  A function never called
# has no key: the decision of either table reads its systems as data, so it
# applies no L, builds no Scalar and makes no descendant solve
TABLE = ["fusion-table", "--lambda-squares", "3,5/4,22/9,13/7"]
TABLE_COUNTS = {
    "build_vector": 149, "evaluate": 481, "output_lines": 769,
    "rank": 15, "rref": 15, "rref_cells": 46, "subs": 4, "systems": 7,
}

# the standard grid, the one that reaches every reason type: 1 600 triples,
# so the counts pin which arrangements decide() tries before one decides
STANDARD = ["fusion-table", "--lambda-squares", "1/3,1/2,2,9/2,8,5"]
STANDARD_COUNTS = {
    "build_vector": 542, "evaluate": 1461, "output_lines": 1601,
    "rank": 105, "rref": 105, "rref_cells": 606, "subs": 9, "systems": 15,
}

# every verify suite; the t_4, t_12 and t_24 ladder queries, whose first
# slots have singular vectors at levels 5, 13 and 25 (a closed form, which
# applies no L and builds no Scalar); the characters of M+ and Mtheta+ to
# q^40; and the descendant coordinates of h(-12)|0> in M- and of
# h(-10)e^lam in the charged M(s=3)
REQUESTS = {
    "verify": (["verify", "--suite", "all"], {
        "L": 5486, "build_vector": 568, "evaluate": 1498, "express": 37, "output_lines": 46,
        "rank": 105, "rref": 145, "rref_cells": 1368, "scalars": 46769, "subs": 90, "systems": 15,
        "try_divide": 9,
    }),
    "t4": (["fusion", "--m", "M(s=8)", "--n", "M(s=9/58)", "--l", "M(s=9/58)"], {
        "build_vector": 8, "evaluate": 12, "output_lines": 1, "subs": 2, "systems": 2,
    }),
    "t12": (["fusion", "--m", "M(s=72)", "--n", "M(s=7/38)", "--l", "M(s=7/38)"], {
        "build_vector": 10, "evaluate": 16, "output_lines": 1, "subs": 3, "systems": 2,
    }),
    "t24": (["fusion", "--m", "M(s=288)", "--n", "M(s=143/766)", "--l", "M(s=143/766)"], {
        "build_vector": 10, "evaluate": 16, "output_lines": 1, "subs": 3, "systems": 2,
    }),
    "char-plus": (["char", "--module", "M+", "--cutoff", "40"], {"output_lines": 1}),
    "char-theta-plus": (["char", "--module", "Mtheta+", "--cutoff", "40"], {"output_lines": 1}),
    "reduce": (["reduce", "--module", "M-", "--expr", "h(-12)|0>"], {
        "L": 275, "express": 1, "output_lines": 37, "rref": 1, "rref_cells": 2072,
        "scalars": 25872,
    }),
    "reduce-charged": (["reduce", "--module", "M(s=3)", "--expr", "h(-10)e^lam"], {
        "L": 192, "express": 1, "output_lines": 45, "rref": 1, "rref_cells": 1764,
        "scalars": 43468,
    }),
}


def _counts(argv, seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed))
    env.pop("VOAF_CUTOFF", None)
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT] + argv, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("seed", [0, 4242])
def test_table_work_counts(seed):
    """Evaluations, monomial vectors, ranks and constraint systems built
    while deciding the table."""
    assert _counts(TABLE, seed) == TABLE_COUNTS


@pytest.mark.parametrize("seed", [0, 4242])
def test_standard_grid_work_counts(seed):
    assert _counts(STANDARD, seed) == STANDARD_COUNTS


@pytest.mark.parametrize("seed", [0, 4242])
@pytest.mark.parametrize("request_name", sorted(REQUESTS))
def test_request_work_counts(request_name, seed):
    """Scalars built, Virasoro modes applied, eliminations, descendant
    solves, substitutions and divisions of one request."""
    argv, counts = REQUESTS[request_name]
    assert _counts(argv, seed) == counts
