"""Exact linear algebra over a field given by duck-typed elements.

Entries may be Fractions or Scalars; they must support +, -, *, / and
truthiness (nonzero test).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class InconsistentSystem(Exception):
    pass


def _rref(a: List[list], ncols: int, one) -> List[int]:
    """Reduce the rows of `a` in place to reduced row echelon form over the
    first `ncols` columns and return the pivot columns.

    Pivots are chosen left to right, each pivot row is normalized to one and
    its column is cleared in every other row; pivot i ends up in row i.
    Columns past `ncols` (an augmented right-hand side) ride along.
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
        inv = one / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def solve(rows: Sequence[Sequence], rhs: Sequence, zero, one) -> Optional[list]:
    """Solve rows * x = rhs exactly.

    Returns a solution with free variables set to zero (pivots chosen left
    to right, so earlier columns are preferred), or raises
    InconsistentSystem.  `zero` and `one` are the field constants.
    """
    n = len(rows[0]) if rows else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _rref(a, n, one)
    if any(a[r][n] for r in range(len(pivots), len(a))):
        raise InconsistentSystem("no exact solution")
    x = [zero] * n
    for r, c in enumerate(pivots):
        x[c] = a[r][n]
    return x


def row_reduction(rows: Sequence[Sequence], zero, one) -> Tuple[List[int], List[list]]:
    """The pivot columns of the matrix and a transform T that takes it to
    reduced row echelon form, with the pivots chosen as in solve.

    Row i of T*rows has its pivot in column pivots[i]; the rows of T past
    the rank annihilate the matrix.  So rows * x = b is solvable exactly
    when (T*b)[i] == 0 for every i >= len(pivots), and then x[pivots[i]] =
    (T*b)[i], free variables zero, is the solution that solve returns.
    """
    n = len(rows[0]) if rows else 0
    m = len(rows)
    a = [list(r) + [one if i == j else zero for j in range(m)] for i, r in enumerate(rows)]
    pivots = _rref(a, n, one)
    return pivots, [r[n:] for r in a]


def rank(rows: Sequence[Sequence], one) -> int:
    n = len(rows[0]) if rows else 0
    return len(_rref([list(r) for r in rows], n, one))


def nullspace(rows: Sequence[Sequence], ncols: int, zero, one) -> List[list]:
    """Basis of the right kernel of the matrix, free variables normalized
    to one."""
    a = [list(r) for r in rows]
    pivots = _rref(a, ncols, one)
    pivot_cols = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, c in enumerate(pivots):
            vec[c] = zero - a[r][free]
        basis.append(vec)
    return basis
