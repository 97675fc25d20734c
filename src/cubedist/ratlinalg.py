"""Exact linear algebra over the integers and the rationals.

`det_int` and `rank_int` run fraction-free (Bareiss) elimination on
plain lists of Python ints, destructively, so every intermediate value
is an integer and no size or entry can overflow.
`det_solve_int` eliminates [M | R] in one `det_int` pass and
back-substitutes exactly, giving det M and det M * M^{-1} R in integers.
`RationalMatrix` holds `fractions.Fraction` entries,
which stay in canonical form (positive denominator, gcd-reduced), and
gives the second routes that the sweeps compare the Gram kernel
against: an exact inverse and an exact linear solve. Both run through
`det_solve_int` on integer-scaled rows, so `Fraction` only holds results.
Nothing in this module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionError, SingularMatrixError


def det_int(rows: list[list[int]]) -> int:
    """Determinant of the leading k x k block of k rows; may destroy `rows`.

    Bareiss elimination with row pivoting: every intermediate entry is
    an exact minor of the input, so all divisions are exact and entry
    growth stays polynomial in the minors. Columns past k take the same
    row operations: with a nonzero result, rows[i][i:] is row i of the
    fraction-free echelon form of the whole matrix.
    """
    k = len(rows)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(k - 1):
        piv_row = rows[c]
        if piv_row[c] == 0:
            for r in range(c + 1, k):
                if rows[r][c]:
                    rows[c], rows[r] = rows[r], rows[c]
                    piv_row = rows[c]
                    sign = -sign
                    break
            else:
                return 0
        piv = piv_row[c]
        piv_tail = piv_row[c + 1 :]
        for r in range(c + 1, k):
            row = rows[r]
            f = row[c]
            if prev == 1:
                if f:
                    row[c + 1 :] = [piv * x - f * y for x, y in zip(row[c + 1 :], piv_tail)]
                elif piv != 1:
                    row[c + 1 :] = [piv * x for x in row[c + 1 :]]
            elif f:
                row[c + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row[c + 1 :], piv_tail)]
            else:
                row[c + 1 :] = [(piv * x) // prev for x in row[c + 1 :]]
        prev = piv
    return sign * rows[-1][k - 1]


def rank_int(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, destroying `rows`.

    Same fraction-free update as `det_int`, with zero columns skipped.
    """
    nr = len(rows)
    if nr == 0:
        return 0
    nc = len(rows[0])
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        piv_i = None
        for i in range(r, nr):
            if rows[i][c]:
                piv_i = i
                break
        if piv_i is None:
            continue
        rows[r], rows[piv_i] = rows[piv_i], rows[r]
        piv_row = rows[r]
        piv = piv_row[c]
        piv_tail = piv_row[c + 1 :]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[c]
            if f:
                row[c + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row[c + 1 :], piv_tail)]
            elif piv != prev:
                row[c + 1 :] = [(piv * x) // prev for x in row[c + 1 :]]
            row[c] = 0
        prev = piv
        r += 1
    return r


def det_solve_int(rows: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det M, det M * X) with M X = R, for k integer rows [M | R] with M
    k x k; destroys `rows`. det * X is None when det M = 0.

    One `det_int` pass eliminates M and carries R along. det * X is an
    integer matrix (Cramer: it is adj(M) R), so back-substitution on the
    fraction-free echelon form divides exactly.
    """
    k = len(rows)
    det = det_int(rows)
    if det == 0:
        return 0, None
    ys: list = [None] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        acc = [det * b for b in row[k:]]
        for j in range(i + 1, k):
            f = row[j]
            if f:
                acc = [a - f * y for a, y in zip(acc, ys[j])]
        ys[i] = [a // row[i] for a in acc]
    return det, ys


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        tup = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise DimensionError("rows have unequal lengths")
        return cls(tup)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _solve_rows(self, rhs: Sequence[Sequence]) -> list[list[Fraction]]:
        """X with M X = R, R given by its rows. Each row of [M | R] is
        scaled to integers by the lcm of its denominators, which leaves X
        unchanged; `det_solve_int` gives det * X in integers."""
        rows = []
        for row, extra in zip(self.entries, rhs):
            full = [*row, *map(Fraction, extra)]
            scale = lcm(*(x.denominator for x in full))
            rows.append([x.numerator * (scale // x.denominator) for x in full])
        det, ys = det_solve_int(rows)
        if det == 0:
            raise SingularMatrixError(det=Fraction(0))
        return [[Fraction(y, det) for y in y_row] for y_row in ys]

    def inverse(self) -> "RationalMatrix":
        """Exact inverse; raises on a singular input."""
        if not self.is_square:
            raise DimensionError(f"inverse of {self.rows}x{self.cols} matrix")
        k = self.rows
        eye = [[int(i == j) for j in range(k)] for i in range(k)]
        return RationalMatrix(tuple(map(tuple, self._solve_rows(eye))))

    def solve(self, v: Sequence) -> tuple[Fraction, ...]:
        """Solve ``M w = v`` exactly without forming the inverse."""
        if not self.is_square:
            raise DimensionError(f"solve with {self.rows}x{self.cols} matrix")
        if len(v) != self.rows:
            raise DimensionError(f"solve rhs dim {len(v)} for {self.rows}x{self.cols} matrix")
        return tuple(row[0] for row in self._solve_rows([[x] for x in v]))

    def to_strings(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]
