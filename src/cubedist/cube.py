"""Hamming-cube point sets as bit patterns.

Every formula in the package reads a set {x_0, ..., x_m} of H_n only
through its distance matrix D, its Gram matrix G = B B^T and u = diag G,
and all three come from bit patterns. So a PointSet is just the
dimension n and a tuple of patterns, one machine int per point
(coordinate k = bit k, so n <= 64); distances are popcounts of XORs and
dot products popcounts of ANDs. The set is ordered and duplicate-free;
the first listed point is the translation base: XOR by it is an isometry
sending x_0 to the origin, so the Gram objects of any set come from its
translated `tail`, and `normalize` only makes the translation explicit.

The `distance_rows` / `gram_rows` helpers build the distance and Gram
matrices as tuples of integer rows, and `bordered_rows` borders a
matrix in new row lists; everything in this module is integer
arithmetic. A PointSet caches its distance rows (`d_rows`), and the
Gram rows with u (`gram`) and Gram-kernel pass (`kernel`) of its
`tail`, each built through those module functions at most once per set
and returned as built. The eliminations in `ratlinalg` read rows
without writing to them, so callers pass the cached rows straight in.

Gram kernel. `gram_eliminate` is the package's left-looking exact
elimination of the Gram matrix of bit patterns: it takes a tail's
points in order and gives each one row of a fraction-free, no-pivot,
symmetric Bareiss elimination (Bareiss 1968) of the bordered Gram
matrix [[G, u], [u^T, 0]], points first and border last. Its pivots are
the leading minors of G and its corner is the bordered determinant, so
an independent tail of m points yields det G = pivots[-1] and
<G^{-1}u, u> = -corner / det G. G = B B^T is positive semidefinite, so
the first zero pivot is the first point in the span of its
predecessors; that point's column history is the right side of the
prefix's triangular system U c = h (U[i][t] = hists[t][i], U[i][i] =
pivots[i]), whose solution c expresses the point in the prefix and
gives a kernel vector of D. The exhaustive search walk runs the same
integer steps right-looking, one step per level, on the pivots, borders
and pair entries of the trailing block that the elimination leaves
after each prefix (see `search`).

`rank_of_bits`, behind `affinely_independent`, is a separate rank
test; it runs only where independence is itself the reported or
compared answer, and only on tails of at most n points (more are
dependent in R^n without one).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DegenerateMetricError, DimensionError, ParseError
from .ratlinalg import rank_int

MIN_DIM = 2
MAX_DIM = 64


@dataclass(frozen=True)
class PointSet:
    """Ordered list x_0, ..., x_m of distinct points of H_n (m >= 1),
    each stored as its bit pattern (coordinate k = bit k)."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        n, bits = self.n, self.bits
        if not MIN_DIM <= n <= MAX_DIM:
            raise DimensionError(f"cube dimension {n} outside [{MIN_DIM}, {MAX_DIM}]")
        if len(bits) < 2:
            raise ValueError("a point set needs at least two points")
        if min(bits) < 0 or max(bits) >> n:
            b = next(b for b in bits if not 0 <= b < (1 << n))
            raise DimensionError(f"bit pattern {b:#x} does not fit in {n} coordinates")
        if len(set(bits)) != len(bits):
            i = next(i for i, b in enumerate(bits) if b in bits[:i])
            raise DegenerateMetricError(f"point {i} repeats {_pattern_string(bits[i], n)}")

    @classmethod
    def from_bits(cls, n: int, bits: Iterable[int]) -> "PointSet":
        return cls(n, tuple(bits))

    @classmethod
    def from_coords(cls, coords_list: Iterable[Iterable[int]]) -> "PointSet":
        """Points given as 0/1 coordinate rows of one common length n."""
        rows = [tuple(c) for c in coords_list]
        if not rows:
            raise ValueError("a point set needs at least two points")
        n = len(rows[0])
        bits = []
        for row in rows:
            if len(row) != n:
                raise DimensionError(f"points of {n} and {len(row)} coordinates in one set")
            if any(c not in (0, 1) for c in row):
                raise ValueError(f"coordinates must be 0 or 1, got {row}")
            bits.append(sum(c << k for k, c in enumerate(row)))
        return cls(n, tuple(bits))

    @property
    def m(self) -> int:
        return len(self.bits) - 1

    @property
    def normalized(self) -> bool:
        return self.bits[0] == 0

    def to_strings(self) -> list[str]:
        return [_pattern_string(b, self.n) for b in self.bits]

    @cached_property
    def d_rows(self) -> tuple[tuple[int, ...], ...]:
        """The distance matrix, from `distance_rows`."""
        return distance_rows(self.bits)

    @property
    def tail(self) -> tuple[int, ...]:
        """x_1 ^ x_0, ..., x_m ^ x_0 (bits[1:] when x_0 = 0); not cached."""
        base = self.bits[0]
        return tuple([b ^ base for b in self.bits[1:]]) if base else self.bits[1:]

    @cached_property
    def gram(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(G, u) of the translated tail, from `gram_rows`."""
        return gram_rows(self.tail)

    @cached_property
    def kernel(self):
        """`gram_eliminate` of the translated tail."""
        return gram_eliminate(self.tail)


def _pattern_string(bits: int, n: int) -> str:
    """The point as n characters 0/1, coordinate k first-to-last."""
    return format(bits, f"0{n}b")[::-1]


def normalize(s: PointSet) -> PointSet:
    """Translate so x_0 = 0 by XORing every point with the base.

    The cube's group structure makes this an isometry, so the distance
    matrix is unchanged.
    """
    return s if s.normalized else PointSet(s.n, (0, *s.tail))


def distance_rows(bits: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Pairwise Hamming distance matrix of bit patterns, as int rows."""
    return tuple([tuple([(a ^ b).bit_count() for b in bits]) for a in bits])


def bordered_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The matrix [[0, 1^T], [1, rows]] as new int rows: the one writer
    of the layout that every bordered determinant, exact or float, reads."""
    return [[0] + [1] * len(rows)] + [[1, *row] for row in rows]


def gram_rows(tail_bits: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Gram matrix and its diagonal for 0/1 points given as bit patterns.

    The dot product of 0/1 vectors is the popcount of the AND.
    """
    g = tuple([tuple([(a & b).bit_count() for b in tail_bits]) for a in tail_bits])
    return g, tuple([row[i] for i, row in enumerate(g)])


def random_tail(rng, n: int, m: int) -> tuple[int, ...]:
    """m distinct nonzero patterns of H_n in increasing order, drawn
    uniformly from `rng` (a `random.Random`) by rejection."""
    chosen: set[int] = set()
    while len(chosen) < m:
        chosen.add(rng.randrange(1, 1 << n))
    return tuple(sorted(chosen))


def gram_eliminate(tail: Sequence[int]):
    """Eliminate the tail's points in order, stopping at the first one
    in the span of its predecessors.

    Point i (0-based) gets its column history hists[i][s] = a^(s)_{s,i}
    for s < i, its pivot pivots[i] = a^(i)_{i,i}, the Gram determinant
    of points[:i + 1], and its border entry borders[i] = a^(i)_{i,b};
    `corner` = a^(k)_{b,b} is the bordered determinant of the k-point
    prefix (0 for the empty one). Intermediate entries are minors of
    the input, so every division is exact.

    Returns (points, hists, pivots, borders, corner, dependent): the
    state of the independent prefix, and `dependent` = (x, hist), the
    first point with a zero pivot and its column history, or None when
    the whole tail is linearly independent. Then pivots[-1] = det G and
    corner = det [[G, u], [u^T, 0]].
    """
    points: list[int] = []
    hists: list[list[int]] = []
    pivots: list[int] = []
    borders: list[int] = []
    corner = 0
    for x in tail:
        hist: list[int] = []
        piv = bord = x.bit_count()
        prev = 1
        for i in range(len(points)):
            a = (points[i] & x).bit_count()
            h = hists[i]
            pv = 1
            for s in range(i):
                ps = pivots[s]
                a = (ps * a - h[s] * hist[s]) // pv
                pv = ps
            hist.append(a)
            p = pivots[i]
            piv = (p * piv - a * a) // prev
            bord = (p * bord - a * borders[i]) // prev
            prev = p
        if not piv:
            return points, hists, pivots, borders, corner, (x, hist)
        points.append(x)
        hists.append(hist)
        pivots.append(piv)
        borders.append(bord)
        corner = (piv * corner - bord * bord) // prev
    return points, hists, pivots, borders, corner, None


def _gf2_rank(vals: Iterable[int]) -> int:
    pivots: dict[int, int] = {}
    r = 0
    for v in vals:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                r += 1
                break
            v ^= p
    return r


def rank_of_bits(tail_bits: Sequence[int], n: int) -> int:
    """Exact rank over the rationals of 0/1 rows given as bit patterns.

    Rational rank dominates GF(2) rank, so full GF(2) rank certifies
    full rational rank without leaving bit arithmetic; a GF(2)-dependent
    set can still be rationally independent, so anything else falls back
    to exact integer elimination.
    """
    m = len(tail_bits)
    if _gf2_rank(tail_bits) == m:
        return m
    rows = [[(b >> k) & 1 for k in range(n)] for b in tail_bits]
    return rank_int(rows)


def affinely_independent(s: PointSet) -> bool:
    """Whether x_0, ..., x_m are affinely independent: the rank test on
    the translated tail, which more than n points fail without it."""
    return s.m <= s.n and rank_of_bits(s.tail, s.n) == s.m


def parse_point_set(text: str) -> PointSet:
    """Parse the point-set text format.

    First line: ``n count``; then `count` lines, each a string of n
    characters '0'/'1'. Structural problems raise ParseError with the
    offending line; a repeated point raises DegenerateMetricError.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header line 'n count'", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n count', got {lines[0]!r}", line=1)
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"header must hold two integers, got {lines[0]!r}", line=1) from None
    if not MIN_DIM <= n <= MAX_DIM:
        raise ParseError(f"dimension {n} outside [{MIN_DIM}, {MAX_DIM}]", line=1)
    if count < 2:
        raise ParseError(f"need at least 2 points, header says {count}", line=1)
    body = [(i + 2, ln.strip()) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(body) != count:
        raise ParseError(f"header promises {count} points but file has {len(body)}", line=1)
    bits = []
    seen: dict[int, int] = {}
    for lineno, token in body:
        if len(token) != n:
            raise ParseError(f"point has {len(token)} coordinates, expected {n}", line=lineno)
        if set(token) - {"0", "1"}:
            raise ParseError(f"characters outside 0/1 in {token!r}", line=lineno)
        b = int(token[::-1], 2)
        if b in seen:
            raise DegenerateMetricError(f"line {lineno}: point {token} repeats line {seen[b]}")
        seen[b] = lineno
        bits.append(b)
    return PointSet(n, tuple(bits))


def parse_point_set_file(path) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_point_set(fh.read())
