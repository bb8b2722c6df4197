"""Exact linear algebra over the field of the entries.

Entries may be ints, Fractions or Scalars; they must support +, -, *, /
and truthiness (nonzero test).  A missing entry is the int 0, and no zero
cell is multiplied or subtracted, so an int matrix computes in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

_ONE = Fraction(1)


class InconsistentSystem(Exception):
    pass


def _rref(a: List[list], ncols: int) -> List[int]:
    """Reduce the rows of `a` in place to reduced row echelon form over the
    first `ncols` columns and return the pivot columns.

    Pivots are chosen left to right, each pivot row is normalized to one and
    its column is cleared in every other row; pivot i ends up in row i.
    Columns past `ncols` (an augmented right-hand side) ride along.  A zero
    cell is left as it is.
    """
    m = len(a)
    pivots: List[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        sel = next((r for r in range(row, m) if a[r][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = _ONE / a[row][col]
        a[row] = [v * inv if v else v for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w if w else v for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list:
    """Solve rows * x = rhs exactly.

    Returns a solution with free variables set to zero (pivots chosen left
    to right, so earlier columns are preferred), or raises
    InconsistentSystem.
    """
    n = len(rows[0]) if rows else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _rref(a, n)
    if any(a[r][n] for r in range(len(pivots), len(a))):
        raise InconsistentSystem("no exact solution")
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = a[r][n]
    return x


def row_reduction(rows: Sequence[Sequence]) -> Tuple[List[int], List[list]]:
    """The pivot columns of the matrix and a transform T that takes it to
    reduced row echelon form, with the pivots chosen as in solve.

    Row i of T*rows has its pivot in column pivots[i]; the rows of T past
    the rank annihilate the matrix.  So rows * x = b is solvable exactly
    when (T*b)[i] == 0 for every i >= len(pivots), and then x[pivots[i]] =
    (T*b)[i], free variables zero, is the solution that solve returns.
    """
    n = len(rows[0]) if rows else 0
    m = len(rows)
    a = [list(r) + [1 if i == j else 0 for j in range(m)] for i, r in enumerate(rows)]
    pivots = _rref(a, n)
    return pivots, [r[n:] for r in a]


def rank(rows: Sequence[Sequence]) -> int:
    n = len(rows[0]) if rows else 0
    return len(_rref([list(r) for r in rows], n))


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[list]:
    """Basis of the right kernel of the matrix, free variables normalized
    to one."""
    a = [list(r) for r in rows]
    pivots = _rref(a, ncols)
    pivot_cols = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = _ONE
        for r, c in enumerate(pivots):
            vec[c] = -a[r][free]
        basis.append(vec)
    return basis
