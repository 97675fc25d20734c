"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and separate from the package's
elimination code: determinants by permutation expansion, distances by
summing coordinate differences, Gram matrices by explicit dot products
over signed integers. Tests compute expected values through these and
compare the package's fast routes against them.

The exceptions are the slow paths that the Gram kernel replaced, kept
so that the fast routes are compared against them: the `Fraction`
Gaussian elimination that built kernel witnesses, and, in the search
section at the end, the per-subset evaluator (a rank test, a Gram
rebuild and two pivoting Bareiss determinants for every subset).
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from cubedist import cube
from cubedist.errors import IndependenceError
from cubedist.ratlinalg import RationalVector, det_int


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


def matmul(a, b):
    """Product of two matrices given as row lists."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def bordered(rows, vec, corner):
    """The matrix [[corner, vec^T], [vec, rows]] as row lists."""
    return [[corner, *vec]] + [[v, *row] for v, row in zip(vec, rows)]


def kernel_witness_oracle(s):
    """Kernel vector of D for a normalized set with a dependent tail, by
    Fraction Gaussian elimination of the coordinate rows: the first tail
    point that reduces to zero gives the dependence, scaled to coprime
    integers with the first nonzero tail entry positive and
    c_0 = -(c_1 + ... + c_m)."""
    tail = s.bits()[1:]
    n, m = s.n, s.m
    basis = []
    for j, b in enumerate(tail):
        vec = [Fraction((b >> k) & 1) for k in range(n)]
        combo = {j: Fraction(1)}
        for bvec, bcombo in basis:
            lead = next(i for i, e in enumerate(bvec) if e != 0)
            if vec[lead] != 0:
                f = vec[lead] / bvec[lead]
                vec = [a - f * c for a, c in zip(vec, bvec)]
                for idx, coef in bcombo.items():
                    combo[idx] = combo.get(idx, Fraction(0)) - f * coef
        if all(e == 0 for e in vec):
            c_tail = [combo.get(i, Fraction(0)) for i in range(m)]
            scale = lcm(*(c.denominator for c in c_tail))
            ints = [int(c * scale) for c in c_tail]
            g = gcd(*ints)
            ints = [v // g for v in ints]
            first = next(v for v in ints if v)
            if first < 0:
                ints = [-v for v in ints]
            return RationalVector.of([-sum(ints)] + ints)
        basis.append((vec, combo))
    raise IndependenceError("tail points are linearly independent; D has trivial kernel")


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
