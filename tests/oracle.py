"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and separate from the package's
elimination code: determinants by permutation expansion, distances by
summing coordinate differences, Gram matrices by explicit dot products
over signed integers. Tests compute expected values through these and
compare the package's fast routes against them.

The exception is the search section at the end: the per-subset evaluator
that the search kernel replaced (a rank test, a Gram rebuild and two
pivoting Bareiss determinants for every subset), kept as the slow path
the prefix-sharing kernel is compared against.
"""

from fractions import Fraction
from itertools import combinations, permutations

from cubedist import cube
from cubedist.ratlinalg import det_int


def leibniz_det(rows):
    """Permutation-expansion determinant; fine up to ~7x7."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    assert all(len(r) == k for r in rows)
    total = Fraction(0)
    for perm in permutations(range(k)):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
            if term == 0:
                break
        if term == 0:
            continue
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        total += term if inversions % 2 == 0 else -term
    return total


def l1_distance(a, b):
    """l1 distance of coordinate tuples."""
    return sum(abs(x - y) for x, y in zip(a, b))


def distance_matrix_from_coords(coords_list):
    return [[l1_distance(a, b) for b in coords_list] for a in coords_list]


def gram_of_differences(coords_list):
    """Gram matrix of x_i - x_0 (signed integer arithmetic)."""
    base = coords_list[0]
    diffs = [[x - b for x, b in zip(c, base)] for c in coords_list[1:]]
    return [[sum(a * b for a, b in zip(u, v)) for v in diffs] for u in diffs]


def matvec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def eval_tail_oracle(tail, n):
    """Exact <D^{-1}1, 1> of {0} + tail, or None when the tail is
    linearly dependent (singular distance matrix)."""
    m = len(tail)
    if m > n or cube.rank_of_bits(tail, n) != m:
        return None
    g, u = cube.gram_rows(tail)
    bord = [[0] + u] + [[u[i]] + g[i] for i in range(m)]
    return Fraction(-2 * det_int(g), det_int(bord))


def scan_oracle(n, m):
    """(examined, independent, best, violations) of the (n, m) slice, one
    subset at a time in lex order, as search.min_dinv_ones reduces it."""
    floor = Fraction(2, n)
    examined = independent = 0
    best = None
    violations = []
    for tail in combinations(range(1, 1 << n), m):
        examined += 1
        val = eval_tail_oracle(tail, n)
        if val is None:
            continue
        independent += 1
        if val < floor:
            violations.append((tail, val))
        if best is None or val < best[0]:
            best = (val, tail)
    return examined, independent, best, violations
