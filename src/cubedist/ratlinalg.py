"""Exact linear algebra over the integers and the rationals.

`det_int`, `rank_int` and `det_solve_int` read one fraction-free
(Bareiss) echelon form, `_echelon`, on Python ints, so no size or entry
can overflow; it never writes to its input rows. `det_solve_int` also
back-substitutes exactly, giving det M and det M * M^{-1} R in integers.
The sweeps' pivoting second routes call `det_solve_int` directly:
`identities.gram_solve` on [G | u], and the deep tree check on [D | I].
`RationalMatrix` holds `fractions.Fraction` entries, which stay in
canonical form (positive denominator, gcd-reduced); in the package it
only carries `trees.graham_lovasz_inverse`, the inverse that
`cubedist tree` prints. Its inverse and solve run through
`det_solve_int` on integer-scaled rows, so `Fraction` only holds results.
Nothing in this module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionError, SingularMatrixError

Rows = Sequence[Sequence[int]]


def _echelon(rows: Rows, ncols: int) -> tuple[int, list[Sequence[int]]]:
    """(sign, pivot rows) of the fraction-free echelon form of the first
    `ncols` columns; later columns take the same row operations. `rows`
    (lists or tuples) is read, never written.

    Bareiss elimination: the first row at or below the current one that
    is nonzero in the column is the pivot row (a swap flips `sign`); a
    column without one is skipped. Every intermediate entry is an exact
    minor of the input, so all divisions are exact. Working and pivot
    rows are held from the current column on, so a pivot row starts with
    its pivot, and each update builds a new list.
    """
    work = list(rows)
    nr = len(work)
    sign = 1
    prev = 1
    pivots: list[Sequence[int]] = []
    r = 0
    for _ in range(ncols):
        if r == nr:
            break
        piv_row = work[r]
        if not piv_row[0]:
            for i in range(r + 1, nr):
                if work[i][0]:
                    piv_row, work[i] = work[i], piv_row
                    sign = -sign
                    break
            else:
                work[r:] = [row[1:] for row in work[r:]]
                continue
        pivots.append(piv_row)
        piv = piv_row[0]
        piv_tail = piv_row[1:]
        r += 1
        for j in range(r, nr):
            row = work[j]
            f = row[0]
            if f:
                work[j] = [(piv * x - f * y) // prev for x, y in zip(row[1:], piv_tail)]
            elif piv == prev:
                work[j] = row[1:]
            else:
                work[j] = [piv * x // prev for x in row[1:]]
        prev = piv
    return sign, pivots


def det_int(rows: Rows) -> int:
    """Determinant of the leading k x k block of k rows (`_echelon`):
    0 unless each of the first k columns has a pivot, else sign times
    the last pivot."""
    k = len(rows)
    sign, pivots = _echelon(rows, k)
    if len(pivots) < k:
        return 0
    return sign * pivots[-1][0] if k else 1


def rank_int(rows: Rows) -> int:
    """Rank over the rationals of an integer matrix: the number of
    pivots of its `_echelon` form."""
    return len(_echelon(rows, len(rows[0]))[1]) if rows else 0


def det_solve_int(rows: Rows) -> tuple[int, list[list[int]] | None]:
    """(det M, det M * X) with M X = R, for k integer rows [M | R] with M
    k x k. det * X is None when det M = 0.

    One `_echelon` pass eliminates the k columns of M and carries R
    along. det * X is an integer matrix (Cramer: it is adj(M) R), so
    back-substitution on the pivot rows (row i from column i on) divides
    exactly.
    """
    k = len(rows)
    sign, pivots = _echelon(rows, k)
    if len(pivots) < k:
        return 0, None
    det = sign * pivots[-1][0] if k else 1
    ys: list = [None] * k
    for i in range(k - 1, -1, -1):
        row = pivots[i]
        acc = [det * b for b in row[k - i :]]
        for j in range(i + 1, k):
            f = row[j - i]
            if f:
                acc = [a - f * y for a, y in zip(acc, ys[j])]
        ys[i] = [a // row[0] for a in acc]
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
