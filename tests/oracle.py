"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and separate from the package's
elimination code: determinants by permutation expansion, distances by
summing coordinate differences, Gram matrices by explicit dot products
over signed integers. Tests compute expected values through these and
compare the package's fast routes against them.

The exceptions are the slow paths that faster code replaced, kept so
that the fast routes are compared against them: `det_oracle`, a
`Fraction` Gaussian elimination for matrices too large to expand by
permutations, against which `det_int` is tested on 16 to 48 rows; the `Fraction`
Gauss-Jordan inverse and Gaussian solve that `RationalMatrix.inverse`
and `.solve` ran before they went through `det_solve_int`; the `Fraction`
Gaussian elimination that built kernel witnesses; the rank test and
`Fraction` solve that gave <G^{-1}u, u> before the Gram kernel; in the search
section, the per-subset evaluator (a rank test, a Gram rebuild and two
pivoting Bareiss determinants for every subset), the one-point
elimination step `gram_push` with `gram_eliminate_oracle`, the Gram
kernel as a loop over it, and the exhaustive walk that pushed every
node through `gram_push` against its whole prefix; in the tree section,
the per-tree check with one BFS per vertex, its own BFS for the cube
embedding, k^2 row-by-column sums and a `Fraction` inverse, and a naive
Prufer decode; and, in the negative-type section at the end, the scalar root scan (one `slogdet`
per matrix and exponent, each scan run to its end).

A few helpers only tests need live here too: `coords` and
`format_point_set` (a point set as coordinate tuples and as file text),
`neighbors` (a tree's adjacency lists, for the BFS oracles),
`rational_from_str`, a strict reader of the rational strings the
package writes into JSON, and the call and pool recorders
`count_calls` and `record_pools`.
"""

import math
import re
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import numpy as np

from cubedist import cube, identities, negtype, search, trees
from cubedist.cube import PointSet, normalize
from cubedist.errors import (
    CapExceededError,
    CubedistError,
    DependenceError,
    DimensionError,
    DomainError,
    IndependenceError,
    NotNegativeTypeError,
    SingularMatrixError,
)
from cubedist.ratlinalg import RationalMatrix, det_int


def count_calls(monkeypatch, owner, *names, calls=None):
    """Wrap owner.<name> for each name so that every call adds one to
    calls[name]; returns the Counter."""
    calls = Counter() if calls is None else calls
    for name in names:
        real = getattr(owner, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def record_pools(monkeypatch, module, inline=False):
    """Replace module.multiprocessing.Pool by a pool that records its
    process count and each `map` call's tasks and chunksize in the
    returned list, one (processes, tasks, chunksize) per call. The pool
    is real, or with inline=True starts no process and maps in this one."""
    seen = []
    real = module.multiprocessing.Pool

    class RecordingPool:
        def __init__(self, processes):
            self._processes = processes
            self._pool = None if inline else real(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            if self._pool is not None:
                self._pool.__exit__(*exc)

        def map(self, fn, tasks, chunksize=None):
            seen.append((self._processes, list(tasks), chunksize))
            if self._pool is None:
                return [fn(task) for task in tasks]
            return self._pool.map(fn, tasks, chunksize)

    monkeypatch.setattr(module.multiprocessing, "Pool", RecordingPool)
    return seen


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


def det_oracle(rows):
    """Determinant by Gaussian elimination over `Fraction` (first
    nonzero pivot, no fraction-free update); leaves `rows` untouched.
    The slow route that `det_int` is compared with on large matrices."""
    a = [[Fraction(x) for x in row] for row in rows]
    k = len(a)
    det = Fraction(1)
    for c in range(k):
        piv_i = next((i for i in range(c, k) if a[i][c] != 0), None)
        if piv_i is None:
            return Fraction(0)
        if piv_i != c:
            a[c], a[piv_i] = a[piv_i], a[c]
            det = -det
        piv = a[c][c]
        det *= piv
        for i in range(c + 1, k):
            if a[i][c] != 0:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


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


def coords(s):
    """The points of a PointSet as 0/1 coordinate tuples (coordinate k
    is bit k of the pattern)."""
    return [tuple((b >> k) & 1 for k in range(s.n)) for b in s.bits]


def format_point_set(s):
    """A PointSet in the text format `cube.parse_point_set` reads."""
    return "\n".join([f"{s.n} {len(s.bits)}"] + s.to_strings()) + "\n"


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def rational_from_str(text):
    """Parse a rational as the package writes it into JSON, ``"p/q"`` or
    ``"p"`` with the sign on the numerator; any other literal raises
    ValueError, so tests can check the format as well as the value."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


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
    tail = s.bits[1:]
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
            return (-sum(ints), *ints)
        basis.append((vec, combo))
    raise IndependenceError("tail points are linearly independent; D has trivial kernel")


def inverse_oracle(m):
    """`RationalMatrix.inverse` by Gauss-Jordan over `Fraction`."""
    if not m.is_square:
        raise DimensionError(f"inverse of {m.rows}x{m.cols} matrix")
    k = m.rows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m.entries)]
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


def solve_oracle(m, v):
    """`RationalMatrix.solve` by Gaussian elimination over `Fraction`
    and back-substitution."""
    if not m.is_square:
        raise DimensionError(f"solve with {m.rows}x{m.cols} matrix")
    if len(v) != m.rows:
        raise DimensionError(f"solve rhs dim {len(v)} for {m.rows}x{m.cols} matrix")
    k = m.rows
    a = [list(row) + [Fraction(v[i])] for i, row in enumerate(m.entries)]
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


def gram_quad_oracle(s):
    """(det G, <G^{-1}u, u>) of a normalized set along the `Fraction`
    route: a rank test, then the Fraction Gram matrix's pivoting
    determinant and an exact solve G w = u. DependenceError for a
    dependent tail."""
    tail = s.bits[1:]
    if cube.rank_of_bits(tail, s.n) != s.m:
        raise DependenceError("tail points are linearly dependent")
    g, u = cube.gram_rows(tail)
    w = solve_oracle(RationalMatrix.from_rows(g), u)
    return Fraction(det_int([row[:] for row in g])), sum(a * b for a, b in zip(w, u))


def eval_tail_oracle(tail, n):
    """Exact <D^{-1}1, 1> of {0} + tail, or None when the tail is
    linearly dependent (singular distance matrix)."""
    m = len(tail)
    if m > n or cube.rank_of_bits(tail, n) != m:
        return None
    g, u = cube.gram_rows(tail)
    bord = [[0, *u]] + [[u[i], *g[i]] for i in range(m)]
    return Fraction(-2 * det_int(g), det_int(bord))


def scan_oracle(n, m, floor=None):
    """(examined, independent, best, violations) of the (n, m) slice, one
    subset at a time in lex order, as search.min_dinv_ones reduces it;
    a violation is a value below `floor`, by default 2/n."""
    floor = Fraction(2, n) if floor is None else floor
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


def gram_push(x, points, hists, pivots, borders, corner):
    """Eliminate point x appended to an independent prefix.

    For prefix point i (0-based), hists[i][s] = a^(s)_{s,i} for s < i is
    its column history, pivots[i] = a^(i)_{i,i} is the Gram determinant
    of points[:i + 1] and borders[i] = a^(i)_{i,b} its border entry;
    `corner` = a^(k)_{b,b} is the bordered determinant of the k-point
    prefix (0 for the empty one). Returns the same four values for the
    prefix extended by x. Intermediate entries are minors of the input,
    so every division is exact; a zero pivot means x lies in the span of
    the prefix.
    """
    hist = []
    piv = bord = x.bit_count()
    prev = 1
    for q, h, p, b in zip(points, hists, pivots, borders):
        a = (q & x).bit_count()
        pv = 1
        for ps, hs, vs in zip(pivots, h, hist):
            a = (ps * a - hs * vs) // pv
            pv = ps
        hist.append(a)
        piv = (p * piv - a * a) // prev
        bord = (p * bord - a * b) // prev
        prev = p
    return hist, piv, bord, (piv * corner - bord * bord) // prev


def gram_eliminate_oracle(tail):
    """`cube.gram_eliminate` as a loop of `gram_push` calls, stopping at
    the first point in the span of its predecessors."""
    points, hists, pivots, borders = [], [], [], []
    corner = 0
    for x in tail:
        hist, piv, bord, c = gram_push(x, points, hists, pivots, borders, corner)
        if not piv:
            return points, hists, pivots, borders, corner, (x, hist)
        points.append(x)
        hists.append(hist)
        pivots.append(piv)
        borders.append(bord)
        corner = c
    return points, hists, pivots, borders, corner, None


def descend_oracle(xs, top, m, points, hists, pivots, borders, corner, tally):
    """The search walk before candidate rows: visit, in lex order, every
    m-subset of {1..top} that extends `points` by a value from xs and
    then by larger values, pushing each through `gram_push` against the
    whole prefix. Returns the number of subsets visited, counting a zero
    pivot's subtree whole."""
    need = m - len(points) - 1
    examined = 0
    for x in xs:
        hist, piv, bord, c = gram_push(x, points, hists, pivots, borders, corner)
        if not piv:
            examined += math.comb(top - x, need)
        elif not need:
            tally.add((*points, x), piv, c)
            examined += 1
        else:
            points.append(x)
            hists.append(hist)
            pivots.append(piv)
            borders.append(bord)
            examined += descend_oracle(
                range(x + 1, top - need + 2), top, m, points, hists, pivots, borders, c, tally
            )
            points.pop()
            hists.pop()
            pivots.pop()
            borders.pop()
    return examined


def scan_range_oracle(task):
    """`search._scan_range` through `descend_oracle`: (examined, tally)
    of every m-subset whose first element lies in [lo, hi)."""
    n, m, lo, hi = task
    tally = search._Tally(n, m)
    examined = descend_oracle(range(lo, hi), (1 << n) - 1, m, [], [], [], [], 0, tally)
    return examined, tally


# --- trees: the per-tree check before it went integer-only ---------------


def neighbors(t):
    """Adjacency lists of a tree's vertices."""
    adj = [[] for _ in range(t.vertex_count)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def tree_distance_rows_bfs(t):
    """All-pairs path lengths of a tree, one BFS from every vertex."""
    k = t.vertex_count
    adj = neighbors(t)
    rows = []
    for start in range(k):
        dist = [-1] * k
        dist[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
        rows.append(dist)
    return rows


def embed_bits_oracle(t):
    """Cube images of the vertices by their own BFS from vertex 0:
    coordinate j is edge j of the sorted normalized edges, looked up in
    a dict, and v maps to the indicator of its root path."""
    norm_edges = sorted((min(u, v), max(u, v)) for u, v in t.edges)
    edge_index = {e: i for i, e in enumerate(norm_edges)}
    adj = neighbors(t)
    bits = [0] * t.vertex_count
    seen = [False] * t.vertex_count
    seen[0] = True
    q = deque([0])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                bits[w] = bits[v] ^ (1 << edge_index[(min(v, w), max(v, w))])
                q.append(w)
    return bits


def prufer_edges_oracle(seq, k):
    """The edges a Prufer sequence codes, decoded naively: each entry
    joins the smallest vertex of remaining degree 1 to it."""
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(k) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(i for i in range(k) if degree[i] == 1))
    return edges


def check_tree_oracle(t, report, deep=False):
    """`verify.check_tree` as it was: BFS distance rows, its own BFS
    embedding, k^2 row-by-row sums for the product D^{-1} D = I, and a
    `Fraction` inverse compared with the closed form entry by entry. Reads
    `trees.scaled_inverse_rows` and `trees.graham_lovasz_inverse` through
    the module, so a fault patched into them reaches this route too."""
    n = t.n
    k = t.vertex_count
    drows = tree_distance_rows_bfs(t)
    ebits = embed_bits_oracle(t)
    iso = all(
        drows[i][j] == (ebits[i] ^ ebits[j]).bit_count() for i in range(k) for j in range(i)
    )
    report.counter("embedding_isometry").add(iso, t.edges)
    det_direct = det_int([row[:] for row in drows])
    report.counter("tree_det_formula").add(det_direct == trees.graham_pollak_det(t), t.edges)
    minv = trees.scaled_inverse_rows(t)
    target = 2 * n
    prod_ok = all(
        sum(a * b for a, b in zip(minv[i], drows[j])) == (target if i == j else 0)
        for i in range(k)
        for j in range(k)
    )
    report.counter("inverse_entries_product").add(prod_ok, t.edges)
    report.counter("inverse_entry_sum").add(sum(sum(row) for row in minv) == 4, t.edges)
    report.counter("embedded_affine_independent").add(
        cube.rank_of_bits(tuple(ebits[1:]), n) == n, t.edges
    )
    if deep:
        try:
            inv_ok = RationalMatrix.from_rows(drows).inverse() == trees.graham_lovasz_inverse(t)
        except CubedistError:
            inv_ok = False
        report.counter("inverse_entries_direct").add(inv_ok, t.edges)
        try:
            dinv_ok = identities.dinv_ones(PointSet.from_bits(n, ebits)) == Fraction(2, n)
        except CubedistError:
            dinv_ok = False
        report.counter("embedded_dinv_value").add(dinv_ok, t.edges)


# --- negative type: the scalar root scan ---------------------------------


def _log_hadamard(a):
    norms = np.sqrt((a * a).sum(axis=1))
    if np.any(norms == 0.0):
        return -math.inf
    return float(np.log(norms).sum())


def _det_signal(a):
    """Raw sign of det(a) and the log of |det| / Hadamard bound."""
    logh = _log_hadamard(a)
    if logh == -math.inf:
        return 0, -math.inf
    sign, logabs = np.linalg.slogdet(a)
    if sign == 0.0:
        return 0, -math.inf
    return (1 if sign > 0 else -1), logabs - logh


def _residual(ratio):
    return math.exp(min(ratio, 0.0))


def bisect_root_oracle(sign_at, lo, hi, s_lo, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s, ratio = sign_at(mid)
        if s == 0:
            return mid, (mid, mid), _residual(ratio)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    _, ratio = sign_at(mid)
    return mid, (lo, hi), _residual(ratio)


def first_root_oracle(sign_at, lo, cap, grid, tol):
    """Earliest root of the scalar function sign_at on [lo, cap]: a
    sign change refined by bisection, or a zero-classified run the scan
    cannot cross; None when the sign never changes below the cap."""
    log_tol = math.log(tol)
    steps = int(math.ceil((cap - lo) / grid - 1e-12))
    last_p = None
    last_s = 0
    band = None
    for k in range(steps + 1):
        p = min(lo + k * grid, cap)
        s, ratio = sign_at(p)
        if s == 0 or ratio <= log_tol:
            band = (p, p) if band is None else (band[0], p)
            continue
        if last_p is None:
            if band is not None:
                return band[0], band, _residual(sign_at(band[0])[1])
            last_p, last_s = p, s
            continue
        if s != last_s:
            return bisect_root_oracle(sign_at, last_p, p, last_s, tol)
        if band is not None:
            mid = 0.5 * (band[0] + band[1])
            return mid, band, _residual(sign_at(mid)[1])
        last_p, last_s = p, s
    if band is not None:
        return band[0], band, _residual(sign_at(band[0])[1])
    return None


def earliest_root_oracle(det_sign, bord_sign, lo, cap, grid, tol):
    """Both scans run to their ends; the earlier root wins, the
    determinant root on a tie."""
    found = []
    hit = first_root_oracle(det_sign, lo, cap, grid, tol)
    if hit is not None:
        found.append((hit[0], negtype.ROOT_DETERMINANT, hit[1], hit[2]))
    hit = first_root_oracle(bord_sign, lo, cap, grid, tol)
    if hit is not None:
        found.append((hit[0], negtype.ROOT_BORDERED, hit[1], hit[2]))
    if not found:
        return None
    return min(found, key=lambda item: item[0])


def scan_for_roots_oracle(d_float, exact_det_sign, exact_bord_sign, lo, cap, grid, tol, alpha=1.0):
    k = d_float.shape[0]
    bord = np.zeros((k + 1, k + 1))
    bord[0, 1:] = 1.0
    bord[1:, 0] = 1.0
    bord[1:, 1:] = d_float

    def det_sign(p):
        if exact_det_sign is not None and p == lo:
            return exact_det_sign, 0.0
        return _det_signal(np.power(d_float, p / alpha))

    def bord_sign(p):
        if exact_bord_sign is not None and p == lo:
            return exact_bord_sign, 0.0
        sign_b, logabs_b = np.linalg.slogdet(np.power(bord, p / alpha))
        if sign_b == 0.0:
            return 0, -math.inf
        sign_d, logabs_d = np.linalg.slogdet(np.power(d_float, p / alpha))
        if sign_d == 0.0:
            return (1 if sign_b > 0 else -1), 0.0
        return (1 if sign_b > 0 else -1), logabs_b - logabs_d

    return earliest_root_oracle(det_sign, bord_sign, lo, cap, grid, tol)


def sanchez_wp_oracle(s, cap=negtype.DEFAULT_CAP, tol=negtype.DEFAULT_TOL, grid=negtype.DEFAULT_GRID):
    """`negtype.sanchez_wp` on the scalar scan."""
    if cap < 1:
        raise DomainError(f"cap {cap} below 1")
    sn = normalize(s)
    if not cube.affinely_independent(sn):
        return negtype.NegTypeReport(1.0, negtype.ROOT_DETERMINANT, (1.0, 1.0), 0.0, float(cap))
    rows = cube.distance_rows(sn.bits)
    exact_det = det_int([row[:] for row in rows])
    exact_bord = det_int(cube.bordered_rows(rows))
    # a pair: det D_p = -d^(2p) and the bordered determinant 2 d^p never
    # vanish, so any root a float scan reports is spurious
    hit = None if len(rows) == 2 else scan_for_roots_oracle(
        np.array(rows, dtype=float),
        1 if exact_det > 0 else -1,
        1 if exact_bord > 0 else -1,
        1.0,
        float(cap),
        grid,
        tol,
    )
    if hit is None:
        return negtype.NegTypeReport(
            float(cap), negtype.ROOT_NONE_BELOW_CAP, (float(cap), float(cap)), None, float(cap)
        )
    root, kind, bracket, residual = hit
    return negtype.NegTypeReport(root, kind, bracket, residual, float(cap))


def transform_scaling_check_oracle(
    s, p, cap=negtype.DEFAULT_CAP, tol=negtype.DEFAULT_TOL, grid=negtype.DEFAULT_GRID
):
    """`negtype.transform_scaling_check` on the scalar scan."""
    if p < 1:
        raise DomainError(f"exponent {p} below 1")
    base = sanchez_wp_oracle(s, cap=cap, tol=tol, grid=grid)
    if base.is_lower_bound:
        raise CapExceededError(f"no root below cap {cap} for the base metric")
    wp1 = base.wp
    if math.isinf(p):
        return (math.inf, math.inf)
    if p == 1.0:
        return (wp1, wp1)
    sn = normalize(s)
    if not cube.affinely_independent(sn):
        return (float(p), p * wp1)
    d_float = np.array(cube.distance_rows(sn.bits), dtype=float)
    hit = scan_for_roots_oracle(d_float, None, None, 1.0, p * float(cap), p * grid, tol, alpha=p)
    if hit is None:
        raise CapExceededError(f"no root below {p * cap} for the transformed metric")
    return (hit[0], p * wp1)


def strict_p_negative_type_oracle(s, p, tol=negtype.DEFAULT_TOL):
    """`negtype.strict_p_negative_type` with separate scalar `slogdet`
    calls (D_p factorised twice for p > 1)."""
    if not negtype.is_p_negative_type(s, p, tol):
        raise NotNegativeTypeError(f"set does not have {p}-negative type")
    rows = cube.distance_rows(normalize(s).bits)
    if p == 1:
        return det_int([row[:] for row in rows]) != 0 and det_int(cube.bordered_rows(rows)) != 0
    d_float = np.array(rows, dtype=float)
    log_tol = math.log(tol)
    sign_d, ratio_d = _det_signal(np.power(d_float, p))
    if sign_d == 0 or ratio_d <= log_tol:
        return False
    sign_b, logabs_b = np.linalg.slogdet(np.power(np.array(cube.bordered_rows(rows), dtype=float), p))
    if sign_b == 0.0:
        return False
    _, logabs_dp = np.linalg.slogdet(np.power(d_float, p))
    return logabs_b - logabs_dp > log_tol
