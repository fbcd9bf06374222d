"""Tests for the exact determinant.

Claims covered:
    - det equals the Leibniz permutation sum on random int, Fraction and
      mixed matrices of size 0..5, and always returns a Fraction
    - a zero leading pivot takes the row-swap path with the right sign
    - singular matrices and matrices with a zero row give zero
    - stacked minors of random flags agree with the permutation sum
    - a non-square input raises ValueError
    - the closed forms for n = 3 and 4 equal the permutation sum on entries
      of up to MAX_ENTRY_BITS bits, with a Fraction row, with a zero
      leading pivot and on singular matrices, and return a Fraction; a
      non-square input of 3 or 4 rows raises the square-matrix message
"""
from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import permutations
from math import prod

import pytest

import confseed.minor_oracle as mo
from confseed.linalg import det
from confseed.root_data import MAX_ENTRY_BITS


def leibniz(rows) -> Q:
    """Reference determinant: the signed sum over all permutations."""
    n = len(rows)
    total = Q(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        total += (-1) ** inversions * prod((rows[i][perm[i]] for i in range(n)), start=Q(1))
    return total


def _entry(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-9, 9)
    return Q(rng.randint(-9, 9), rng.randint(1, 7))


def _matrix(rng, n, kind):
    return [[_entry(rng, kind) for _ in range(n)] for _ in range(n)]


class TestDet:
    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_matches_leibniz_on_random_matrices(self, kind):
        rng = random.Random(31)
        for n in range(6):
            for _ in range(40 if n < 5 else 8):
                rows = _matrix(rng, n, kind)
                got = det(rows)
                assert type(got) is Q
                assert got == leibniz(rows), rows

    def test_empty_matrix_is_one(self):
        assert det([]) == 1

    def test_zero_leading_pivot_swaps_rows(self):
        rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
        assert det(rows) == leibniz(rows) == -3
        rows = [[0, 0, 1], [0, Q(1, 2), 0], [Q(1, 3), 0, 0]]
        assert det(rows) == leibniz(rows) == Q(-1, 6)
        rng = random.Random(7)
        for n in range(2, 6):
            for _ in range(10):
                rows = _matrix(rng, n, "mixed")
                rows[0][0] = 0
                assert det(rows) == leibniz(rows)

    def test_singular_matrices_are_zero(self):
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[Q(1, 2), 1, 3], [1, 2, 6], [5, 7, 9]]) == 0
        rng = random.Random(11)
        for n in range(3, 6):
            rows = _matrix(rng, n, "mixed")
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
            assert det(rows) == 0

    def test_zero_row_is_zero(self):
        rng = random.Random(13)
        for n in range(1, 6):
            for r in range(n):
                rows = _matrix(rng, n, "mixed")
                rows[r] = [0] * n
                assert det(rows) == 0

    def test_stacked_flag_minors(self):
        rng = random.Random(17)
        for n, degrees in ((3, (1, 2)), (3, (1, 1, 1)), (4, (2, 2)), (4, (1, 2, 1))):
            for _ in range(10):
                flags = mo.random_flags(rng, n, len(degrees))
                rows = [r for d, f in zip(degrees, flags) for r in f[:d]]
                assert det(rows) == leibniz(rows)
                assert mo.wedge_invariant(degrees, flags) == leibniz(rows)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            det([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            det([[1, 2], [3]])


def _wide(rng, n):
    """An n x n int matrix with entries of up to MAX_ENTRY_BITS bits."""
    top = (1 << MAX_ENTRY_BITS) - 1
    return [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [3, 4])
class TestClosedForms:
    def _agree(self, rows):
        got = det(rows)
        assert type(got) is Q
        assert got == leibniz(rows), rows
        return got

    def test_wide_entries(self, n):
        rng = random.Random(40 + n)
        for _ in range(10):
            self._agree(_wide(rng, n))
        top = (1 << MAX_ENTRY_BITS) - 1
        self._agree([[top if i == j else -top for j in range(n)] for i in range(n)])

    def test_a_fraction_row_is_scaled(self, n):
        rng = random.Random(50 + n)
        for r in range(n):
            rows = _wide(rng, n)
            rows[r] = [Q(x, rng.randint(1, 1 << 64)) for x in rows[r]]
            self._agree(rows)
            rows = _matrix(rng, n, "int")
            rows[r] = _matrix(rng, n, "fraction")[0]
            self._agree(rows)

    def test_zero_leading_pivot(self, n):
        rng = random.Random(60 + n)
        for _ in range(10):
            rows = _matrix(rng, n, "mixed")
            rows[0][0] = 0
            self._agree(rows)
        swap = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
        assert self._agree(swap) == (-1) ** (n - 1)
        rows = _matrix(rng, n, "int")
        for row in rows:
            row[0] = 0
        assert self._agree(rows) == 0

    def test_singular(self, n):
        rng = random.Random(70 + n)
        for r in range(n):
            rows = _wide(rng, n)
            rows[r] = [3 * x - 2 * y for x, y in zip(rows[(r + 1) % n], rows[(r + 2) % n])]
            assert self._agree(rows) == 0
            rows = _matrix(rng, n, "mixed")
            rows[r] = list(rows[(r + 1) % n])
            assert self._agree(rows) == 0
            rows[r] = [0] * n
            assert self._agree(rows) == 0

    def test_non_square(self, n):
        square = [list(range(i, i + n)) for i in range(n)]
        for rows in (square[:-1] + [square[-1][:-1]], square[:-1] + [square[-1] + [1]],
                     [row[:-1] for row in square], [row + [1] for row in square]):
            with pytest.raises(ValueError, match="^det needs a square matrix$"):
                det(rows)
