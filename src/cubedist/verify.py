"""Self-checking sweeps: every exact identity on every set in range.

The identity sweep walks normalized point sets (exhaustively for small
n, seeded-random samples for larger n) and recomputes each determinant
identity along two independent routes, comparing exactly. On a dependent
set every determinant checked is 0, and the set's kernel witness c
certifies each zero from the bit patterns (D c = 0, G c_tail = 0,
u.c_tail = 0, sum c = 0) without building D or G. The tree
sweep walks all labeled trees up to a vertex cap via Prufer sequences
and checks the embedding, the determinant formula, and the closed-form
inverse. Failures are counted, never raised, so a report always comes
back; an all-green report is the acceptance gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from operator import mul

from . import cube, identities, search, trees
from .cube import PointSet
from .errors import BudgetExceededError, CubedistError, DomainError, InvariantError
from .ratlinalg import det_int, det_solve_int


@dataclass
class CheckCounter:
    checked: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)

    def add(self, ok: bool, describe=None) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if describe is not None and len(self.samples) < 5:
                self.samples.append(describe)


@dataclass
class SweepReport:
    label: str
    counters: dict[str, CheckCounter] = field(default_factory=dict)

    def counter(self, name: str) -> CheckCounter:
        if name not in self.counters:
            self.counters[name] = CheckCounter()
        return self.counters[name]

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.counters.values())

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self.counters):
            c = self.counters[name]
            status = "PASS" if c.failed == 0 else "FAIL"
            line = f"{status} {self.label}/{name}: checked={c.checked} failures={c.failed}"
            if c.samples:
                line += f" first={c.samples[0]!r}"
            out.append(line)
        return out


_IDENTITY_CHECKS = (
    "det_via_bordered_gram",
    "bordered_distance_det",
    "affine_criterion",
    "dependent_kernel",
    "det_via_gram_quad",
    "gram_quad_two_routes",
    "dinv_ones_consistency",
    "full_dim_gram_quad",
    "full_dim_det",
)


def check_point_set(tail: tuple[int, ...], n: int, report: SweepReport) -> None:
    """Run every identity check on the normalized set {0} + tail.

    The checks branch on the Gram kernel's dependence. A dependent set is
    certified by its kernel witness (`_certify_dependent`) and never
    builds D or (G, u). An independent set builds D, (G, u) and the Gram
    kernel once, and each check compares two routes; the rank test feeds
    only `affine_criterion`. A second route that raises a CubedistError
    fails every counter that reads it.
    """
    m = len(tail)
    s = PointSet.from_bits(n, (0,) + tail)
    det_g, kernel_gq = identities.kernel_quad(s)
    if kernel_gq is None:
        _certify_dependent(s, tail, det_g, report)
        return
    det_direct = identities.det_distance_matrix(s)
    report.counter("det_via_bordered_gram").add(
        identities.det_via_bordered_gram(s) == det_direct, tail
    )
    try:
        bord_val = identities.bordered_distance_det(s)
        report.counter("bordered_distance_det").add(True)
    except InvariantError:
        bord_val = None
        report.counter("bordered_distance_det").add(False, tail)
    report.counter("affine_criterion").add((det_direct != 0) == cube.affinely_independent(s), tail)
    try:
        solve_det_g, gq = identities.gram_solve(s)
    except CubedistError:
        solve_det_g = gq = None  # fails every counter that reads the solve
    report.counter("gram_quad_two_routes").add(gq == kernel_gq, tail)
    report.counter("det_via_gram_quad").add(
        gq is not None
        and det_direct != 0
        and identities.det_from_gram_quad(m, solve_det_g, gq) == det_direct,
        tail,
    )
    report.counter("dinv_ones_consistency").add(
        bord_val is not None
        and bool(gq)
        and det_direct != 0
        and Fraction(-bord_val, det_direct) == 2 / gq > 0,
        tail,
    )
    if m == n:
        report.counter("full_dim_gram_quad").add(gq == n, tail)
        report.counter("full_dim_det").add(
            det_direct == identities.det_from_gram_quad(n, det_g, n), tail
        )


def _certify_dependent(s: PointSet, tail: tuple[int, ...], det_g: int, report: SweepReport) -> None:
    """The counters of a dependent set, proved by its kernel witness c.

    Every product is read off the bit patterns over supp c only:
    (D c)_a = sum_j c_j |a ^ x_j| and (G c)_a = sum_j c_j |a & x_j|.
    - c != 0 and D c = 0 give det D = 0;
    - G c_tail = 0 and u.c_tail = 0 mean (0, c_1..c_m) annihilates
      [[0, u^T], [u, G]], so its determinant is 0 as well;
    - sum c = 0 with D c = 0 means (0, c) annihilates [[0, 1^T], [1, D]],
      whose formula side is 0 when the kernel's det G is.
    The pivoting eliminations these replace stay in `identities`.
    """
    c = identities.kernel_witness(s)
    live = [(x, cj) for x, cj in zip(s.bits, c) if cj]
    live_tail = [(x, cj) for x, cj in zip(tail, c[1:]) if cj]
    d_null = bool(live) and all(
        sum(cj * (a ^ x).bit_count() for x, cj in live) == 0 for a in s.bits
    )
    g_null = all(sum(cj * (a & x).bit_count() for x, cj in live_tail) == 0 for a in tail)
    u_null = sum(cj * x.bit_count() for x, cj in live_tail) == 0
    sum_null = sum(c) == 0
    report.counter("det_via_bordered_gram").add(d_null and g_null and u_null, tail)
    report.counter("bordered_distance_det").add(d_null and sum_null and det_g == 0, tail)
    report.counter("affine_criterion").add(d_null and not cube.affinely_independent(s), tail)
    report.counter("dependent_kernel").add(d_null and sum_null, tail)


def identity_sweep_exhaustive(n: int) -> SweepReport:
    """Every normalized subset of H_n with the origin and m >= 1 more
    points: 2^(2^n - 1) - 1 sets."""
    report = SweepReport(f"identities-n{n}", {name: CheckCounter() for name in _IDENTITY_CHECKS})
    top = (1 << n) - 1
    for m in range(1, top + 1):
        for tail in combinations(range(1, top + 1), m):
            check_point_set(tail, n, report)
    return report


def identity_sweep_random(n: int, samples: int, seed: int) -> SweepReport:
    """Seeded random subsets of H_n: size m uniform on [1, 2^n - 1],
    then m distinct nonzero patterns by rejection."""
    report = SweepReport(
        f"identities-n{n}-random", {name: CheckCounter() for name in _IDENTITY_CHECKS}
    )
    rng = random.Random(seed)
    top = (1 << n) - 1
    for _ in range(samples):
        check_point_set(cube.random_tail(rng, n, rng.randint(1, top)), n, report)
    return report


_TREE_CHECKS = (
    "embedding_isometry",
    "tree_det_formula",
    "inverse_entries_product",
    "inverse_entry_sum",
    "embedded_affine_independent",
)


def check_tree(t: trees.UnweightedTree, report: SweepReport, deep: bool = False) -> None:
    """Embedding, determinant, and inverse-entry checks for one tree.

    Every check is exact integer arithmetic in O(k^2) Python-level
    operations on k = n + 1 vertices. One BFS from vertex 0
    (`trees.tree_rows_and_bits`) gives the distance rows and the cube
    embedding; the isometry check compares each row with the cube
    distances of that vertex's image. The product check D^{-1} * D = I
    runs on M = 2n D^{-1} from the closed form, one packed integer per
    row (`_is_scaled_identity`), and det D comes from `det_int`.

    `deep` additionally inverts D by elimination, one `det_solve_int`
    pass giving det D, which the determinant check then reads in place
    of `det_int`'s, and adj D = det D * D^{-1}; it passes when
    2n adj D = det D * M entrywise. It also reruns the <D^{-1}1,1> value
    through the Gram route of the embedded point set, the one check that
    uses `Fraction`.
    """
    n = t.n
    k = t.vertex_count
    drows, ebits = trees.tree_rows_and_bits(t)
    iso = all(row == [(b ^ x).bit_count() for x in ebits] for row, b in zip(drows, ebits))
    report.counter("embedding_isometry").add(iso, t.edges)
    minv = trees.scaled_inverse_rows(t)
    report.counter("inverse_entries_product").add(
        _is_scaled_identity(minv, drows, 2 * n), t.edges
    )
    report.counter("inverse_entry_sum").add(sum(map(sum, minv)) == 4, t.edges)
    report.counter("embedded_affine_independent").add(
        cube.rank_of_bits(tuple(ebits[1:]), n) == n, t.edges
    )
    if deep:
        det, adj = det_solve_int(
            [row + [int(i == j) for j in range(k)] for i, row in enumerate(drows)]
        )
        inv_ok = det != 0 and all(
            [2 * n * a for a in adj_row] == [det * x for x in m_row]
            for adj_row, m_row in zip(adj, minv)
        )
        report.counter("inverse_entries_direct").add(inv_ok, t.edges)
        try:
            dinv_ok = identities.dinv_ones(PointSet.from_bits(n, ebits)) == Fraction(2, n)
        except CubedistError:
            dinv_ok = False
        report.counter("embedded_dinv_value").add(dinv_ok, t.edges)
    else:
        det = det_int(drows)
    report.counter("tree_det_formula").add(det == trees.graham_pollak_det(t), t.edges)


def _is_scaled_identity(m_rows: list[list[int]], d_rows: list[list[int]], scale: int) -> bool:
    """Whether M D^T = scale * I, for k x k integer matrices M and D.

    Column l of D is packed into one integer, sum_j D[j][l] << (w j), so
    row i of the product, sum_l M[i][l] * column l, packs
    sum_j (M D^T)[i][j] << (w j) in one sum of k products; it is compared
    with scale << (w i). Each entry of M D^T differs from its target by at
    most bound = max_i sum_l |M[i][l]| * max |D| + scale, and w is one bit
    more than the bound needs, so every difference d_j is below 2^(w-1)
    in magnitude. Then the packed row equals its target only if every
    entry does: in a nonzero sum_j d_j 2^(w j), the lowest nonzero d_j
    would have to be divisible by 2^w. The bound is read off the actual
    entries, so no entry, however large, can carry into its neighbour.
    """
    d_max = max(map(abs, chain.from_iterable(d_rows)))
    bound = max([sum(map(abs, row)) for row in m_rows]) * d_max + scale
    w = bound.bit_length() + 1
    cols = [0] * len(d_rows)
    for row in reversed(d_rows):
        cols = [(c << w) + d for c, d in zip(cols, row)]
    target = scale
    for row in m_rows:
        if sum(map(mul, row, cols)) != target:
            return False
        target <<= w
    return True


# The deep checks eliminate [D | I] per tree, so the sweep runs them on
# small trees only: up to this many vertices.
DEEP_MAX_VERTICES = 6


def tree_sweep(max_vertices: int = 8) -> SweepReport:
    """All labeled trees on 3..max_vertices vertices (k^(k-2) per size,
    via Prufer sequences); deep checks up to DEEP_MAX_VERTICES."""
    report = SweepReport("trees", {name: CheckCounter() for name in _TREE_CHECKS})
    for k in range(trees.MIN_VERTICES, max_vertices + 1):
        deep = k <= DEEP_MAX_VERTICES
        for t in trees.enumerate_labeled_trees(k):
            check_tree(t, report, deep=deep)
    return report


# A random identity sweep's sets hold up to 2^n - 1 points.
RANDOM_DIM_RANGE = (2, 8)


def run_default_verification(
    n_cap: int = 4,
    tree_cap: int = 8,
    random_dims: tuple[int, ...] = (),
    random_samples: int = 10_000,
    seed: int = 2024,
) -> list[SweepReport]:
    """The verify subcommand's workload: exhaustive identity sweeps for
    2..n_cap, optional random sweeps, and the tree sweep.

    Refused before any sweep starts, so that no report passes after
    checking nothing: n_cap below 2, tree_cap below `trees.MIN_VERTICES`,
    fewer than one sample per random sweep, or a random dimension outside
    RANDOM_DIM_RANGE (DomainError); and more sets, trees and samples in
    total than `search.DEFAULT_BUDGET` (BudgetExceededError).
    """
    if n_cap < 2:
        raise DomainError(f"n_cap must be at least 2, got {n_cap}")
    if tree_cap < trees.MIN_VERTICES:
        raise DomainError(f"tree_cap must be at least {trees.MIN_VERTICES}, got {tree_cap}")
    if random_dims and random_samples < 1:
        raise DomainError(f"random sweeps need at least 1 sample, got {random_samples}")
    lo, hi = RANDOM_DIM_RANGE
    if any(not lo <= n <= hi for n in random_dims):
        raise DomainError(f"random sweep dimensions {list(random_dims)} outside [{lo}, {hi}]")
    # lazy, because the exhaustive counts grow doubly exponentially
    sizes = chain(
        [len(random_dims) * random_samples],
        ((1 << ((1 << n) - 1)) - 1 for n in range(2, n_cap + 1)),
        (k ** (k - 2) for k in range(trees.MIN_VERTICES, tree_cap + 1)),
    )
    total = 0
    for size in sizes:
        total += size
        if total > search.DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"verification needs at least {total} sets, trees and samples, "
                f"over budget {search.DEFAULT_BUDGET}",
                required=total,
            )
    reports = [identity_sweep_exhaustive(n) for n in range(2, n_cap + 1)]
    for n in random_dims:
        reports.append(identity_sweep_random(n, random_samples, seed))
    reports.append(tree_sweep(max_vertices=tree_cap))
    return reports
