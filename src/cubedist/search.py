"""Exhaustive and randomized scans of min <D^{-1}1, 1> over cube subsets.

Translation invariance lets every subset be represented with the origin
as base point, so the search space for (n, m) is the C(2^n - 1, m)
m-subsets of the nonzero patterns. For each affinely independent subset
the target value is exact:

    <D^{-1}1, 1> = 2 / <G^{-1}u, u> = -2 det(G) / det [[G, u], [u^T, 0]]

and it is compared against the conjectured floor 2/n.

Kernel. The exhaustive scan is one depth-first walk of the lexicographic
combination tree of {1, ..., 2^n - 1} over the fraction-free, no-pivot,
symmetric Bareiss elimination (Bareiss 1968) of the bordered Gram matrix
[[G, u], [u^T, 0]] that `cube.gram_eliminate` runs over one tail, points
first and border last. A node of the walk is a prefix P with its last
pivot prev (det G of P) and corner (the bordered determinant of P).
Every later point y outside the span of P holds a row (y, piv, bord):
the pivot and border entry that `gram_eliminate` gives y when it follows
P, so piv is det G of P + y. Every pair y, z of them holds its entry
a(y, z) of the trailing block that the elimination leaves after P, the
Schur complement of P's block scaled by prev; by Sylvester's identity it
is itself a minor, the determinant of the Gram matrix of P + y with its
last column taken at z. At the root the rows are (y, |y|, |y|) and the
entries |y & z|. Descending to the child P + x is one elimination step
against x, with p = piv(x), for every later y and pair y, z:

    piv'(y)   = (p piv(y)  - a(x, y)^2)         / prev
    bord'(y)  = (p bord(y) - a(x, y) bord(x))   / prev
    a'(y, z)  = (p a(y, z) - a(x, y) a(x, z))   / prev

the same integer operations, with the same exact divisions, as one step
of `gram_eliminate`'s inner loop; so every pivot, corner and value is
the one `gram_eliminate` gives. With three points to go the child's
entries are not stored: each leaf pair y, z takes a'(y, z) by that one
step, then the pivot and border of P + x + y + z and so its corner, and
the set's value is -2 pivot / corner. A leaf thus costs a fixed number
of integer operations whatever the prefix length. A slice with m <= 2
builds no pair entries: m = 1 walks the points with no rows, and a pair
of the m = 2 slice reads its entry as the popcount. With m >= 3 the
root's table holds C(N, 2) entries for N <= 2^n - 1 points, and the
budget C(N, m) bounds it by about (6 budget)^(2/3).

Pruning. G = B B^T is positive semidefinite, so its leading principal
minors are nonnegative, and one of them is zero exactly when the points
so far are linearly dependent. A candidate whose pivot is zero lies in
the span of the prefix, so every set below the node that holds it is
affinely dependent: the walk drops its row. More than n points are
always dependent, so a slice with m > n is answered without walking,
before the budget check. Every set of a slice is examined, as a leaf or
as a set with a dropped point, so a slice's examined count is its size
C(2^n - 1, m). No separate rank test is needed.

Determinism. One rule, `_Tally.leaf`, takes each value: 2/n in an (n, n)
slice, a violation below 2/n, the least value kept exactly with a
(value, lexicographic witness) tie-break. The walk meets its leaves in
lex order, so it calls the rule only below the bar max(best, 2/n), or
off 2/n in an (n, n) slice: a value at least the bar is no violation
and, at best a tie with a lex-later tail, no new best. One process walks
all first elements as one range, as m = 1 does on any worker count. More
processes take one task per first element, walked from the empty prefix;
the tallies merge in task order through the same tie-break, so the JSON
is the same byte for byte whatever the worker count. The largest
first-element subtree holds m / (2^n - 1) of the sets, which caps the
speed-up at (2^n - 1) / m processes (6.2 for (5, 5)). Random probing is
sequential for the same reason; it pushes each drawn tail through
`cube.gram_eliminate` and sends every value to the rule, since a later
draw may tie with a lex-smaller tail.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log10
from typing import Optional

from . import cube
from .cube import PointSet, gram_eliminate
from .errors import BudgetExceededError, DomainError, InvariantError
from .ratlinalg import det_int  # noqa: F401  (module attribute that tracing tools patch by name)

DEFAULT_BUDGET = 10_000_000

# Python prints ints of at most 4,300 digits; comb(2^22 - 1, 2^21) takes minutes
MAX_COUNT_DIGITS = 4000

MODE_EXHAUSTIVE = "exhaustive"
MODE_RANDOM = "random"


def _validate_params(n: int, m: int) -> None:
    if not cube.MIN_DIM <= n <= cube.MAX_DIM:
        raise DomainError(f"dimension {n} outside [{cube.MIN_DIM}, {cube.MAX_DIM}]")
    if not 1 <= m <= (1 << n) - 1:
        raise DomainError(f"subset size {m} outside [1, {(1 << n) - 1}] for dimension {n}")


class _Tally:
    """The partial reduction (independent, best, violations) of one scan,
    from which `result` builds its SearchResult. An independent set's
    value -2 pivot / corner is positive (pivot > 0, corner < 0), so values
    compare by cross-multiplication and a Fraction is built only for the
    reported ones. `leaf` applies the rule to a value and `bar` bounds
    the values the walks may skip (see the module docstring)."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.full_dim = m == n
        self.independent = 0
        self.best: Optional[tuple[int, int, tuple[int, ...]]] = None  # (num, den, tail)
        self.bar = (1, 0)  # max(best, 2/n) as (num, den); (1, 0) before the first value
        self.violations: list[tuple[tuple[int, ...], Fraction]] = []

    def add(self, tail: tuple[int, ...], pivot: int, corner: int) -> None:
        """Count the independent set {0} + tail; its value meets `leaf`
        with no bar test, as random probing draws out of lex order."""
        self.independent += 1
        self.leaf(2 * pivot, -corner, tail)

    def leaf(self, num: int, den: int, tail: tuple[int, ...]) -> tuple[int, int]:
        """Check the value num / den of {0} + tail: 2/n in an (n, n) slice,
        a violation below 2/n, offered as the best; returns the bar."""
        n = self.n
        if self.full_dim and num * n != 2 * den:
            raise InvariantError(
                f"full-dimensional set {tail} gave {Fraction(num, den)}, expected {Fraction(2, n)}"
            )
        if num * n < 2 * den:
            self.violations.append((tail, Fraction(num, den)))
        self._offer(num, den, tail)
        return self.bar

    def _offer(self, num: int, den: int, tail: tuple[int, ...]) -> None:
        """Keep the value num / den with its tail if it beats the best so
        far: the smaller value wins, and on a tie the lex-smaller tail."""
        best = self.best
        if best is not None:
            diff = num * best[1] - best[0] * den
            if diff > 0 or (diff == 0 and tail > best[2]):
                return
        self.best = (num, den, tail)
        self.bar = (num, den) if num * self.n >= 2 * den else (2, self.n)

    def merge(self, other: "_Tally") -> None:
        """Fold in the tally of the stretch of the walk that follows this
        one, so the violations stay in lex order."""
        self.independent += other.independent
        self.violations.extend(other.violations)
        if other.best is not None:
            self._offer(*other.best)

    def result(self, mode: str, examined: int, seed: Optional[int] = None) -> "SearchResult":
        """The scan's SearchResult, reporting `examined` sets examined."""
        n, best = self.n, self.best
        return SearchResult(
            n=n,
            m=self.m,
            mode=mode,
            sets_examined=examined,
            independent_count=self.independent,
            min_value=Fraction(best[0], best[1]) if best else None,
            witness=PointSet.from_bits(n, (0,) + best[2]) if best else None,
            violations=tuple(
                Violation(points=PointSet.from_bits(n, (0,) + tail), value=val)
                for tail, val in self.violations
            ),
            seed=seed,
        )


def _root_rows(lo: int, top: int) -> list:
    """The rows (y, piv, bord) of the empty prefix for the points lo..top:
    piv = bord = |y|."""
    return [(y, y.bit_count(), y.bit_count()) for y in range(lo, top + 1)]


def _root_pairs(rows) -> list:
    """The empty prefix's pair entries |y & z| of its rows: row i of the
    table holds the entries with rows[i + 1:], in order."""
    return [[(y & z).bit_count() for z, _, _ in rows[i + 1 :]] for i, (y, _, _) in enumerate(rows)]


def _descend(rows, pairs, children, prev, corner, need, tail, tally) -> None:
    """Visit, in lex order, every independent set that extends the
    prefix `tail` by `need` >= 3 points from its rows, the first of them
    from rows[:children].

    A row (y, piv, bord) is y's pivot and border entry after elimination
    against the prefix, and pairs[i][j - i - 1] the entry a(y_i, y_j) of
    rows i < j: the trailing Schur-complement block of the elimination
    (see the module docstring). The walk keeps only rows with a nonzero
    pivot. `prev` is the prefix's last pivot (1 for the empty prefix)
    and `corner` its bordered determinant. Each child x takes one
    elimination step against x: into the rows after it, then into their
    pair entries, or, with three points to go, straight into the values
    of the sets prefix + x + y + z. Those leaves come in lex order, so
    only one below the tally's bar, or off 2/n in an (n, n) slice, needs
    `_Tally.leaf` (see the module docstring).
    """
    n, full_dim, (bar_num, bar_den) = tally.n, tally.full_dim, tally.bar
    independent = 0
    for i in range(children):
        x, px, bx = rows[i]
        cx = (px * corner - bx * bx) // prev
        later = []  # (y, piv, bord, index of y in rows, a(x, y))
        for j, ((y, py, by), a) in enumerate(zip(rows[i + 1 :], pairs[i]), i + 1):
            piv = (px * py - a * a) // prev
            if piv:
                later.append((y, piv, (px * by - a * bx) // prev, j, a))
        if need > 3:
            child = []
            for t, (_, _, _, j, a) in enumerate(later):
                row, o = pairs[j], j + 1
                child.append(
                    [(px * row[l - o] - a * b) // prev for _, _, _, l, b in later[t + 1 :]]
                )
            rows_x = [r[:3] for r in later]
            _descend(rows_x, child, len(later) - need + 2, px, cx, need - 1, (*tail, x), tally)
            continue
        for t, (y, py, by, j, a) in enumerate(later):
            row, o = pairs[j], j + 1
            cy = (py * cx - by * by) // px
            for z, pz, bz, l, b in later[t + 1 :]:
                e = (px * row[l - o] - a * b) // prev
                piv = (py * pz - e * e) // px
                if not piv:
                    continue
                bord = (py * bz - e * by) // px
                num, den = 2 * piv, (bord * bord - piv * cy) // py
                independent += 1
                if num * bar_den < bar_num * den or (full_dim and num * n != 2 * den):
                    bar_num, bar_den = tally.leaf(num, den, (*tail, x, y, z))
    tally.independent += independent


def _pair_leaves(rows, children, tally) -> None:
    """Visit, in lex order, every pair {x, y} of the root's rows with x
    from rows[:children]: the m = 2 slice, whose entry a(x, y) is the
    popcount |x & y|. Every pair is independent, as the pivot
    |x| |y| - |x & y|^2 > 0 for distinct nonzero x, y (Cauchy-Schwarz).
    A pair reaches `_Tally.leaf` only by the bar test `_descend` uses."""
    n, full_dim, (bar_num, bar_den) = tally.n, tally.full_dim, tally.bar
    for i in range(children):
        x, px, bx = rows[i]
        cx = -bx * bx
        for y, py, by in rows[i + 1 :]:
            a = (x & y).bit_count()
            piv = px * py - a * a
            bord = px * by - a * bx
            num, den = 2 * piv, (bord * bord - piv * cx) // px
            if num * bar_den < bar_num * den or (full_dim and num * n != 2 * den):
                bar_num, bar_den = tally.leaf(num, den, (x, y))
    tally.independent += sum(len(rows) - 1 - i for i in range(children))


def _scan_range(task: tuple[int, int, int, int]) -> _Tally:
    """Walk every m-subset whose first element lies in [lo, hi), each
    one as a leaf of the walk or as a dependent set."""
    n, m, lo, hi = task
    top = (1 << n) - 1
    tally = _Tally(n, m)
    if m == 1:
        for x in range(lo, hi):
            w = x.bit_count()
            tally.add((x,), w, -w * w)
    elif m == 2:
        _pair_leaves(_root_rows(lo, top), hi - lo, tally)
    else:
        rows = _root_rows(lo, top)
        _descend(rows, _root_pairs(rows), hi - lo, 1, 0, m, (), tally)
    return tally


def _pool_size(workers: int, tasks: int) -> int:
    """Processes to start: never more than requested, than there are
    tasks, or than the machine has CPUs."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


@dataclass(frozen=True)
class Violation:
    """A set whose value undercuts the conjectured floor 2/n."""

    points: PointSet
    value: Fraction

    def to_json_dict(self) -> dict:
        return {"points": self.points.to_strings(), "value": str(self.value)}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive or random scan.

    min_value / witness are None when no affinely independent set was
    seen; the violations list captures any counterexample instead of
    asserting the conjecture.
    """

    n: int
    m: int
    mode: str
    sets_examined: int
    independent_count: int
    min_value: Optional[Fraction]
    witness: Optional[PointSet]
    violations: tuple[Violation, ...]
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "sets_examined": self.sets_examined,
            "independent_count": self.independent_count,
            "min_value": str(self.min_value) if self.min_value is not None else None,
            "witness": self.witness.to_strings() if self.witness is not None else None,
            "violations": [v.to_json_dict() for v in self.violations],
        }
        if self.mode == MODE_RANDOM:
            out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def min_dinv_ones(
    n: int, m: int, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> SearchResult:
    """Exact minimum of <D^{-1}1, 1> over every affinely independent
    normalized (m+1)-point set in H_n.

    Refuses (DomainError) a slice whose count C(2^n - 1, m) has more
    than MAX_COUNT_DIGITS digits. For m > n every set is dependent, so
    the answer comes back at once. Otherwise refuses enumerations larger
    than `budget`. One process, and m = 1 always, walks every first
    element in one range; more take one task per first element, which
    the pool schedules, and the tallies merge in task order with the
    walk's own lexicographic tie-break, so the result does not depend on
    the worker count.
    """
    _validate_params(n, m)
    top = (1 << n) - 1
    k = min(m, top - m)
    # C(top, m) = C(top, k) >= (top / k)^k refuses the largest counts
    # before `comb`; for k >= 2 by a margin far above float rounding
    total = None if k and k * log10(top / k) > MAX_COUNT_DIGITS else comb(top, m)
    if total is None or total >= 10**MAX_COUNT_DIGITS:
        raise DomainError(f"({n}, {m}) has C({top}, {m}) subsets, a count over {MAX_COUNT_DIGITS} digits")
    if m > n:
        return _Tally(n, m).result(MODE_EXHAUSTIVE, total)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration of ({n}, {m}) needs {total} subsets, over budget {budget}",
            required=total,
        )
    end = (1 << n) - m + 1  # one past the last first element
    processes = 1 if m == 1 else _pool_size(int(workers), end - 1)
    if processes == 1:
        tallies = [_scan_range((n, m, 1, end))]
    else:
        tasks = [(n, m, x, x + 1) for x in range(1, end)]
        with multiprocessing.Pool(processes) as pool:
            tallies = pool.map(_scan_range, tasks, chunksize=1)
    tally = tallies[0]
    for later in tallies[1:]:
        tally.merge(later)
    return tally.result(MODE_EXHAUSTIVE, total)


def random_probe(
    n: int, m: int, trials: int, seed: int, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Sample `trials` subsets uniformly (m distinct nonzero patterns by
    rejection), skip dependent ones, and track the exact minimum.

    Refuses more than `budget` trials. Sampling is sequential and driven
    only by the seed, so a rerun with the same arguments reproduces the
    result exactly. For m > n every tail is linearly dependent, so that
    answer comes back without drawing.
    """
    _validate_params(n, m)
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if trials > budget:
        raise BudgetExceededError(
            f"random probe of {trials} trials is over budget {budget}", required=trials
        )
    if m > n:
        return _Tally(n, m).result(MODE_RANDOM, trials, seed)
    rng = random.Random(seed)
    tally = _Tally(n, m)
    for _ in range(trials):
        tail = cube.random_tail(rng, n, m)
        _, _, pivots, _, corner, dependent = gram_eliminate(tail)
        if dependent is None:
            tally.add(tail, pivots[-1], corner)
    return tally.result(MODE_RANDOM, trials, seed)
