"""Exact linear algebra over the integers and the rationals.

`det_int` and `rank_int` run fraction-free (Bareiss) elimination on
plain lists of Python ints, destructively, so every intermediate value
is an integer. `RationalMatrix` holds `fractions.Fraction` entries,
which stay in canonical form (positive denominator, gcd-reduced), and
gives the second, Gauss-Jordan routes that the sweeps compare the
integer kernels against: an exact inverse and an exact linear solve.
Nothing in this module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, SingularMatrixError


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, destroying `rows`.

    Bareiss elimination with row pivoting: every intermediate entry is
    an exact minor of the input, so all divisions are exact and entry
    growth stays polynomial in the minors.
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
    return sign * rows[-1][-1]


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

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan; raises on a singular input."""
        if not self.is_square:
            raise DimensionError(f"inverse of {self.rows}x{self.cols} matrix")
        k = self.rows
        aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(self.entries)]
        for c in range(k):
            piv_i = next((i for i in range(c, k) if aug[i][c] != 0), None)
            if piv_i is None:
                raise SingularMatrixError(det=Fraction(0))
            aug[c], aug[piv_i] = aug[piv_i], aug[c]
            piv = aug[c][c]
            aug[c] = [e / piv for e in aug[c]]
            for i in range(k):
                if i != c and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
        return RationalMatrix(tuple(tuple(row[k:]) for row in aug))

    def solve(self, v: Sequence) -> tuple[Fraction, ...]:
        """Solve ``M w = v`` exactly without forming the inverse."""
        if not self.is_square:
            raise DimensionError(f"solve with {self.rows}x{self.cols} matrix")
        if len(v) != self.rows:
            raise DimensionError(f"solve rhs dim {len(v)} for {self.rows}x{self.cols} matrix")
        k = self.rows
        a = [list(row) + [Fraction(v[i])] for i, row in enumerate(self.entries)]
        for c in range(k):
            piv_i = next((i for i in range(c, k) if a[i][c] != 0), None)
            if piv_i is None:
                raise SingularMatrixError(det=Fraction(0))
            a[c], a[piv_i] = a[piv_i], a[c]
            piv = a[c][c]
            for i in range(c + 1, k):
                if a[i][c] != 0:
                    f = a[i][c] / piv
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        w = [Fraction(0)] * k
        for i in range(k - 1, -1, -1):
            s = a[i][k] - sum((a[i][j] * w[j] for j in range(i + 1, k)), Fraction(0))
            w[i] = s / a[i][i]
        return tuple(w)

    def to_strings(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]
