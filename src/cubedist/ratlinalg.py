"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` (aliased `Rational`), which keeps every
value in canonical form: positive denominator, gcd-reduced. Determinants
and ranks run fraction-free (Bareiss) on integer-scaled rows so that all
intermediate values are integers; inverses and linear solves use
Gauss-Jordan over Fraction. Nothing in this module touches floating
point.

The `det_int` / `rank_int` helpers operate destructively on plain lists
of Python ints; the enumeration sweeps call them directly to skip the
wrapper overhead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionError, SingularMatrixError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def rational_from_str(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` with the sign on the numerator."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def rational_to_str(value: Fraction) -> str:
    """Render as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(Fraction(value))


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
class RationalVector:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable) -> "RationalVector":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def dot(self, other: "RationalVector") -> Fraction:
        if len(self) != len(other):
            raise DimensionError(f"dot of dim {len(self)} with dim {len(other)}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def to_strings(self) -> list[str]:
        return [str(e) for e in self.entries]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "RationalVector":
        return cls(tuple(rational_from_str(s) for s in items))


def ones(dim: int) -> RationalVector:
    return RationalVector.of([1] * dim)


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

    @classmethod
    def identity(cls, k: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def matvec(self, v: RationalVector) -> RationalVector:
        if self.cols != len(v):
            raise DimensionError(f"matvec {self.rows}x{self.cols} by dim {len(v)}")
        return RationalVector(
            tuple(sum((a * b for a, b in zip(row, v.entries)), Fraction(0)) for row in self.entries)
        )

    def _scaled_int_rows(self) -> tuple[list[list[int]], Fraction]:
        """Clear denominators row by row; return integer rows and the
        product of the row scale factors (so det = det_int / factor)."""
        factor = Fraction(1)
        out = []
        for row in self.entries:
            scale = lcm(*(e.denominator for e in row)) if row else 1
            factor *= scale
            out.append([int(e * scale) for e in row])
        return out, factor

    def det(self) -> Fraction:
        """Exact determinant; the 0x0 matrix has determinant 1."""
        if not self.is_square:
            raise DimensionError(f"determinant of {self.rows}x{self.cols} matrix")
        rows, factor = self._scaled_int_rows()
        return Fraction(det_int(rows)) / factor

    def rank(self) -> int:
        """Exact rank over the rationals."""
        rows, _ = self._scaled_int_rows()
        return rank_int(rows)

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

    def solve(self, v: RationalVector) -> RationalVector:
        """Solve ``M w = v`` exactly without forming the inverse."""
        if not self.is_square:
            raise DimensionError(f"solve with {self.rows}x{self.cols} matrix")
        if len(v) != self.rows:
            raise DimensionError(f"solve rhs dim {len(v)} for {self.rows}x{self.cols} matrix")
        k = self.rows
        a = [list(row) + [v.entries[i]] for i, row in enumerate(self.entries)]
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
        return RationalVector(tuple(w))

    def quad_form_inv(self, v: RationalVector) -> Fraction:
        """Exact ``<M^{-1} v, v>`` via a linear solve (M symmetric)."""
        return v.dot(self.solve(v))

    def to_strings(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "RationalMatrix":
        return cls.from_rows([[rational_from_str(s) for s in row] for row in rows])
