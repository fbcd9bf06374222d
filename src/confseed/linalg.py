"""Exact linear algebra over the rationals, small dense systems only.

Determinants are fraction-free: int rows enter Bareiss's integer-preserving
elimination as they stand, a row holding a Fraction is first scaled to
integers by the lcm of its denominators, and only the final value is built
as a Fraction.  The flag oracle's minors mostly stack int flag rows, so they
skip the scaling and build one Fraction each.  solve_with_kernel stays in
Fractions; it is the reference solver the tests check triangle completion
against, and no longer sits on the build path, which reads each arrow off
one equation.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import lcm

_INT = {int}


def mat_mul(a, b) -> list[list]:
    """The product a * b of two matrices given as row sequences."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(rows) -> Q:
    """Determinant by fraction-free Bareiss elimination, always a Fraction.

    Rows of ints are eliminated as they stand.  A row that holds a Fraction
    is first scaled to integers by the lcm of its entries' denominators, and
    the result is divided by the product of those scales.  Elimination
    divides exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968),
    so every intermediate stays an int.  Entries are ints or Fractions;
    det([]) == 1.
    """
    n = len(rows)
    a = []
    scale = 1
    for row in rows:
        if len(row) != n:
            raise ValueError("det needs a square matrix")
        if set(map(type, row)) == _INT:
            a.append(list(row))
            continue
        den = lcm(*(x.denominator for x in row))
        scale *= den
        a.append([x.numerator * (den // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return Q(0)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        rest = range(k + 1, n)
        for row in a[k + 1:]:
            f = row[k]
            for c in rest:
                row[c] = (p * row[c] - f * pivot_row[c]) // prev
        prev = p
    d = sign * a[-1][-1] if n else 1
    return Q(d) if scale == 1 else Q(d, scale)


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
