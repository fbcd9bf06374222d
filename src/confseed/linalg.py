"""Exact linear algebra over the rationals, small dense systems only.

Determinants are fraction-free: int rows are taken as they stand, a row
holding a Fraction is first scaled to integers by the lcm of its
denominators, and only the final value is built as a Fraction.  A 3x3 or
4x4 determinant, the flag oracle's usual minor, is expanded in closed form:
along its first row, or by Laplace along its first two rows.  Every other
size runs Bareiss's integer-preserving elimination.  The flag oracle's
minors mostly stack int flag rows, so they skip the scaling and build one
Fraction each.  solve_with_kernel stays in Fractions; it is the reference
solver the tests check triangle completion against, and no longer sits on
the build path, which reads each arrow off one equation.
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
    """Exact determinant, always a Fraction.

    Rows of ints are taken as they stand.  A row that holds a Fraction is
    first scaled to integers by the lcm of its entries' denominators, and
    the result is divided by the product of those scales.  n = 3 expands
    along the first row.  n = 4 is Laplace's expansion along rows 0 and 1:
    the sum of the six signed products of a 2x2 minor of rows 0-1 and the
    complementary minor of rows 2-3.  Every other n runs fraction-free
    Bareiss elimination, which divides exactly by the previous pivot
    (Bareiss, Math. Comp. 22, 1968), so every intermediate stays an int.
    Entries are ints or Fractions; det([]) == 1.
    """
    n = len(rows)
    a = []
    scale = 1
    for row in rows:
        if len(row) != n:
            raise ValueError("det needs a square matrix")
        if set(map(type, row)) == _INT:
            a.append(row)
            continue
        den = lcm(*(x.denominator for x in row))
        scale *= den
        a.append([x.numerator * (den // x.denominator) for x in row])
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        d = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    elif n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = a
        d = ((a0 * b1 - a1 * b0) * (c2 * e3 - c3 * e2)
             - (a0 * b2 - a2 * b0) * (c1 * e3 - c3 * e1)
             + (a0 * b3 - a3 * b0) * (c1 * e2 - c2 * e1)
             + (a1 * b2 - a2 * b1) * (c0 * e3 - c3 * e0)
             - (a1 * b3 - a3 * b1) * (c0 * e2 - c2 * e0)
             + (a2 * b3 - a3 * b2) * (c0 * e1 - c1 * e0))
    else:
        a = [list(row) for row in a]  # elimination writes into its rows
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
