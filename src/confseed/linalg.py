"""Exact linear algebra over the rationals, small dense systems only."""
from __future__ import annotations

from fractions import Fraction as Q


def mat_mul(a, b) -> list[list]:
    """The product a * b of two matrices given as row sequences."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(rows) -> Q:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(rows)
    a = [[Q(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Q(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    out = Q(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def solve_with_kernel(rows, rhs) -> tuple[list[Q], list[list[Q]]]:
    """Solve rows * x = rhs exactly.

    Returns (particular solution with free variables set to zero, kernel
    basis).  An empty kernel certifies the solution is unique.  Raises
    ValueError when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Q(x) for x in row] + [Q(rhs[r])] for r, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            raise ValueError("inconsistent linear system")
    sol = [Q(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = a[i][n]
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for i, col in enumerate(pivots):
            vec[col] = -a[i][fc]
        kernel.append(vec)
    return sol, kernel
