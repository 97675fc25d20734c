import random
from copy import deepcopy
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cubedist import identities, ratlinalg
from cubedist.cube import PointSet
from cubedist.errors import DimensionError, SingularMatrixError
from cubedist.ratlinalg import RationalMatrix, det_int, rank_int
from oracle import (
    bordered,
    count_calls,
    det_oracle,
    distance_matrix_from_coords,
    gram_of_differences,
    inverse_oracle,
    leibniz_det,
    matmul,
    matvec,
    rational_from_str,
    solve_oracle,
)

F = Fraction


def M(rows):
    return RationalMatrix.from_rows(rows)


def eye(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def quad(a, v):
    """<a^{-1} v, v> through one solve, as `identities.gram_solve` forms it."""
    return sum((x * y for x, y in zip(a.solve(v), v)), F(0))


small_ints = st.integers(min_value=-6, max_value=6)


def square_matrix(dim):
    return st.lists(
        st.lists(small_ints, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    )


class TestDet:
    def test_two_by_two(self):
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[2, 1], [1, 2]]) == 3

    def test_identity(self):
        assert det_int(eye(4)) == 1

    def test_empty_matrix(self):
        assert det_int([]) == 1

    def test_rational_entries(self):
        # rows [1/2, 1/3] and [1/4, 1/5] scaled by 6 and by 20
        assert F(det_int([[3, 2], [5, 4]]), 6 * 20) == F(1, 10) - F(1, 12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            RationalMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionError):
            M([[1, 2, 3], [4, 5, 6]]).inverse()
        with pytest.raises(DimensionError):
            M([[1, 2, 3], [4, 5, 6]]).solve([1, 1])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=5).flatmap(square_matrix))
    def test_matches_permutation_expansion(self, rows):
        assert det_int([r[:] for r in rows]) == leibniz_det(rows)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(square_matrix(d), square_matrix(d))
        )
    )
    def test_multiplicative(self, pair):
        a, b = pair
        prod = matmul(a, b)
        assert det_int(prod) == det_int([r[:] for r in a]) * det_int([r[:] for r in b])


def _low_rank_product(rng, k):
    r = rng.randint(1, 10)
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
    b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
    return matmul(a, b)


def _small_minors(rng, k):
    """L U with L and U sparse unit-triangular, except for a few 2s on
    U's diagonal: nonsingular, with leading minors 1, 2, 4 or 8, so the
    elimination runs to the end and its divisions by the pivots matter."""
    twos = set(rng.sample(range(k), rng.randint(1, 3)))

    def sparse_sign():
        return rng.choice((-1, 1)) if rng.random() < 0.1 else 0

    lo = [[1 if i == j else sparse_sign() if j < i else 0 for j in range(k)] for i in range(k)]
    up = [
        [(2 if i in twos else 1) if i == j else sparse_sign() if j > i else 0 for j in range(k)]
        for i in range(k)
    ]
    return matmul(lo, up)


def _huge_entry(rng, k):
    """Small entries and one past 2^31 or past int64's range."""
    rows = [[rng.randint(-7, 7) for _ in range(k)] for _ in range(k)]
    big = rng.choice((2**31, 2**31 + rng.randint(0, 2**20), 2**63 - 1, 2**63, 2**64 + 3))
    rows[rng.randrange(k)][rng.randrange(k)] = rng.choice((1, -1)) * big
    return rows


def _near_2_20(rng, k):
    """Entries near 2^20, whose products pass 2^31 in the first step."""
    return [[(1 << 20) + rng.randint(-8, 8) for _ in range(k)] for _ in range(k)]


_LARGE_CASES = {
    "dense": lambda rng, k: [[rng.randint(-7, 7) for _ in range(k)] for _ in range(k)],
    "low-rank": _low_rank_product,
    "small-minors": _small_minors,
    "huge-entry": _huge_entry,
    "near-2^20": _near_2_20,
}


def _point_set_matrices(rng):
    """D, bordered Gram and bordered D of a random set of 16 to 47
    points in H_6..H_8, built by the oracle helpers."""
    n = rng.randint(6, 8)
    pts = [tuple((b >> i) & 1 for i in range(n)) for b in rng.sample(range(1 << n), rng.randint(16, 47))]
    d = distance_matrix_from_coords(pts)
    g = gram_of_differences(pts)
    u = [g[i][i] for i in range(len(g))]
    return [d, bordered(g, u, 0), bordered(d, [1] * len(d), 0)]


# A seed draws a whole matrix, so shrinking it finds no simpler one; it
# only reruns the oracle on more matrices of up to 48 rows.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class TestInt64Route:
    """`det_int` on 16 to 48 rows, past what permutation expansion can
    check, against the `Fraction` oracle: dense, singular, exactly
    divisible, with entries past any machine word, and with entries whose
    minors grow past 2^31 at once. The class and its ids are named for
    the int64 route that once ran these sizes under a guard of 2^31 (or
    64 in tests); `det_int` now runs them on Python ints, and each guard
    value is kept as a scale: det(s A) = s^k det(A) must hold exactly."""

    @pytest.mark.parametrize("scale", [2**31, 64], ids=["guard-2^31", "guard-64"])
    @pytest.mark.parametrize("kind", list(_LARGE_CASES))
    @settings(max_examples=8, deadline=None, derandomize=True, phases=_NO_SHRINK)
    @given(k=st.integers(16, 48), seed=st.integers(0, 2**32))
    def test_matches_fraction_oracle(self, scale, kind, k, seed):
        rows = _LARGE_CASES[kind](random.Random(seed), k)
        expected = det_oracle(rows)
        assert det_int([row[:] for row in rows]) == expected
        assert det_int([[scale * x for x in row] for row in rows]) == scale**k * expected
        if kind == "small-minors":
            assert expected != 0

    @pytest.mark.parametrize("scale", [2**31, 64], ids=["guard-2^31", "guard-64"])
    @settings(max_examples=10, deadline=None, derandomize=True, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32))
    def test_point_set_matrices(self, scale, seed):
        for rows in _point_set_matrices(random.Random(seed)):
            assert det_int([row[:] for row in rows]) == det_oracle(rows) == 0
            assert det_int([[scale * x for x in row] for row in rows]) == 0


class TestLargeMatrices:
    """`det_int` on 16 rows with one entry past 2^31 or past int64's range."""

    @pytest.mark.parametrize("big", [2**31, -(2**31), 2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
    def test_huge_entry(self, big):
        rows = eye(16)
        rows[3][5] = big
        assert det_int(rows) == 1
        rows = eye(16)
        rows[4][4] = big
        assert det_int(rows) == big


class TestRank:
    def test_zero_matrix(self):
        assert rank_int([[0] * 3 for _ in range(3)]) == 0

    def test_identity(self):
        assert rank_int(eye(3)) == 3

    def test_dependent_rows(self):
        # row3 = row1 - row2
        assert rank_int([[1, 0, 1], [1, 1, 0], [0, -1, 1]]) == 2

    def test_rank_int_fuzz_against_elimination(self):
        rng = random.Random(11)
        for _ in range(2000):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
            if rng.random() < 0.4 and nr >= 2:
                i, j = rng.sample(range(nr), 2)
                rows[i] = [3 * x for x in rows[j]]
            want = _rank_oracle(rows)
            assert rank_int([r[:] for r in rows]) == want


def _rank_oracle(rows):
    work = [[F(x) for x in row] for row in rows]
    nr, nc = len(work), len(work[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, nr):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == nr:
            break
    return r


class TestInverse:
    def test_antidiagonal(self):
        assert M([[0, 2], [2, 0]]).inverse() == M([[0, F(1, 2)], [F(1, 2), 0]])

    def test_identity(self):
        assert M(eye(3)).inverse() == M(eye(3))

    def test_adjugate_case(self):
        assert M([[2, 1], [1, 2]]).inverse() == M(
            [[F(2, 3), F(-1, 3)], [F(-1, 3), F(2, 3)]]
        )

    def test_singular_raises_with_det_zero(self):
        with pytest.raises(SingularMatrixError) as err:
            M([[1, 2], [2, 4]]).inverse()
        assert err.value.det == 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=4).flatmap(square_matrix))
    def test_round_trip(self, rows):
        if det_int([r[:] for r in rows]) == 0:
            return
        a = M(rows)
        assert M(matmul(a.entries, a.inverse().entries)) == M(eye(len(rows)))


class TestQuadFormAndBorder:
    """<M^{-1} v, v> through `solve`, the rational route of gram_solve."""

    def test_gram_examples(self):
        # Gram matrices of {(1,1,1),(1,1,0)} and {(1,0,1),(1,1,0)}
        assert quad(M([[3, 2], [2, 2]]), [3, 2]) == 3
        assert quad(M([[2, 1], [1, 2]]), [2, 2]) == F(8, 3)

    def test_identity_quad(self):
        assert quad(M(eye(5)), [1] * 5) == 5

    def test_quad_form_equals_inverse_route(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
            sym = [[rows[i][j] + rows[j][i] for j in range(d)] for i in range(d)]
            if det_int([r[:] for r in sym]) == 0:
                continue
            a = M(sym)
            v = [rng.randint(-5, 5) for _ in range(d)]
            assert quad(a, v) == sum(x * y for x, y in zip(v, matvec(a.inverse().entries, v)))

    def test_singular_quad_raises(self):
        with pytest.raises(SingularMatrixError):
            quad(M([[1, 1], [1, 1]]), [1, 2])

    def test_quad_dim_mismatch(self):
        with pytest.raises(DimensionError):
            quad(M([[1, 0], [0, 1]]), [1, 2, 3])

    def test_schur_block_determinant(self):
        # det [[W, X], [Y, Z]] = det(Z) det(W - X Z^{-1} Y) for invertible
        # Z; with integer blocks, det(Z)^j det(W - X Z^{-1} Y) is the
        # determinant of the integer matrix det(Z) (W - X Z^{-1} Y)
        rng = random.Random(17)
        done = 0
        while done < 120:
            j, k = rng.randint(1, 3), rng.randint(1, 3)
            w = [[rng.randint(-4, 4) for _ in range(j)] for _ in range(j)]
            x = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(j)]
            y = [[rng.randint(-4, 4) for _ in range(j)] for _ in range(k)]
            z = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            det_z = det_int([r[:] for r in z])
            if det_z == 0:
                continue
            done += 1
            zinv = M(z).inverse().entries
            block = [w[i] + x[i] for i in range(j)] + [y[i] + z[i] for i in range(k)]
            schur_scaled = [
                [
                    det_z
                    * (
                        F(w[a][b])
                        - sum(x[a][c] * zinv[c][d] * y[d][b] for c in range(k) for d in range(k))
                    )
                    for b in range(j)
                ]
                for a in range(j)
            ]
            assert all(v.denominator == 1 for row in schur_scaled for v in row)
            schur_int = [[int(v) for v in row] for row in schur_scaled]
            assert det_int(block) * det_z ** (j - 1) == det_int(schur_int)


class TestSolve:
    def test_solve_known_system(self):
        a = M([[2, 1], [1, 2]])
        w = a.solve([3, 3])
        assert w == (1, 1)

    def test_solve_dim_mismatch(self):
        with pytest.raises(DimensionError):
            M([[1, 0], [0, 1]]).solve([1])

    def test_solve_singular(self):
        with pytest.raises(SingularMatrixError):
            M([[1, 1], [2, 2]]).solve([1, 1])


@st.composite
def systems(draw, entries, max_dim):
    """(rows, rhs, forced): a square matrix with entries from `entries`
    and a right-hand side; when `forced`, one row is a multiple of
    another (or, for 1x1, zero), so the matrix is singular."""
    d = draw(st.integers(min_value=1, max_value=max_dim))
    row = st.lists(entries, min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=d, max_size=d))
    forced = draw(st.booleans())
    if forced:
        i = draw(st.integers(min_value=0, max_value=d - 1))
        if d == 1:
            rows[i] = [0]
        else:
            j = draw(st.integers(min_value=0, max_value=d - 2))
            j += j >= i
            f = draw(st.integers(min_value=-3, max_value=3))
            rows[i] = [f * x for x in rows[j]]
    return rows, draw(row), forced


def _matches_oracle(route, oracle):
    """Run both routes; they must give equal results, or both raise
    SingularMatrixError with det 0. Returns whether they gave results."""
    try:
        want = oracle()
    except SingularMatrixError as err:
        assert err.det == 0
        with pytest.raises(SingularMatrixError) as got:
            route()
        assert got.value.det == 0
        return False
    assert route() == want
    return True


class TestAgainstFractionOracle:
    """`inverse` and `solve` (one `_echelon` elimination, then exact
    back-substitution) against the `Fraction` Gauss-Jordan and Gauss
    loops they replaced."""

    def check(self, rows, v, forced):
        a = M(rows)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, ratlinalg, "_echelon")
            inv_ok = _matches_oracle(a.inverse, lambda: inverse_oracle(a))
            assert calls["_echelon"] == 1
            solve_ok = _matches_oracle(lambda: a.solve(v), lambda: solve_oracle(a, v))
            assert calls["_echelon"] == 2
        assert inv_ok == solve_ok
        if forced:
            assert not inv_ok
        return inv_ok

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(systems(small_ints, 8))
    def test_integer_matrices(self, system):
        rows, v, forced = system
        assert self.check(rows, v, forced) == (det_int([r[:] for r in rows]) != 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(systems(st.fractions(min_value=-4, max_value=4, max_denominator=6), 6))
    def test_fraction_matrices(self, system):
        self.check(*system)

    def test_zero_leading_pivots(self):
        # pivoting at every column, and an empty system
        assert self.check([[0, 0, 2], [0, 3, 1], [5, 1, 1]], [1, 2, 3], False)
        assert self.check([], [], False)


@st.composite
def echelon_inputs(draw):
    """k integer rows of k + extra columns, square (extra 0) or wide;
    when `deficient`, one row is a combination of two others (zero when
    either is the row itself), so the leading square block is singular.
    Given as lists of lists or as tuples of tuples."""
    k = draw(st.integers(min_value=1, max_value=6))
    width = k + draw(st.integers(min_value=0, max_value=3))
    rows = draw(st.lists(st.lists(small_ints, min_size=width, max_size=width), min_size=k, max_size=k))
    deficient = draw(st.booleans())
    if deficient:
        i = draw(st.integers(min_value=0, max_value=k - 1))
        a, b = (draw(st.integers(min_value=-3, max_value=3)) for _ in range(2))
        j1, j2 = (draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(2))
        if i in (j1, j2):
            rows[i] = [0] * width
        else:
            rows[i] = [a * x + b * y for x, y in zip(rows[j1], rows[j2])]
    if draw(st.booleans()):
        rows = tuple(map(tuple, rows))
    return rows, deficient


class TestReadOnlyEchelon:
    """`det_int`, `rank_int` and `det_solve_int` share one elimination,
    which reads its rows and never writes to them: each answer matches
    its `Fraction` oracle and the input is unchanged after every call."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(echelon_inputs())
    def test_matches_fraction_oracles_and_leaves_input(self, system):
        rows, deficient = system
        before = deepcopy(rows)
        k = len(rows)
        det = det_int(rows)
        assert rows == before
        assert det == det_oracle(rows)
        if deficient:
            assert det == 0
        assert rank_int(rows) == _rank_oracle(rows)
        assert rows == before
        cols = [list(col) for col in zip(*rows)]
        assert rank_int(cols) == _rank_oracle(rows)
        got = ratlinalg.det_solve_int(rows)
        assert rows == before
        a = M([row[:k] for row in rows])
        rhs = cols[k:]
        if det == 0:
            assert got == (0, None)
            with pytest.raises(SingularMatrixError):
                solve_oracle(a, [0] * k)
            return
        got_det, ys = got
        assert got_det == det
        assert [list(y) for y in zip(*ys)] == [
            [det * w for w in solve_oracle(a, col)] for col in rhs
        ]
        assert len(ys) == k and all(len(y) == len(rhs) for y in ys)


class TestDetSolveInt:
    """`det_solve_int` on [M | R] gives (det M, det M * M^{-1} R) in
    integers; checked on [M | I] and [M | v] against the `Fraction`
    oracles."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(systems(small_ints, 8))
    def test_adjugate_and_scaled_solution(self, system):
        rows, v, forced = system
        k = len(rows)
        det = det_int([r[:] for r in rows])
        got_det, adj = ratlinalg.det_solve_int([r + e for r, e in zip(rows, eye(k))])
        assert got_det == det
        got_det, y = ratlinalg.det_solve_int([r + [x] for r, x in zip(rows, v)])
        assert got_det == det
        if det == 0:
            assert adj is None and y is None
            return
        assert not forced
        assert adj == [[det * e for e in row] for row in inverse_oracle(M(rows)).entries]
        assert [row[0] for row in y] == [det * w for w in solve_oracle(M(rows), v)]

    def test_singular_and_pivoting(self):
        assert ratlinalg.det_solve_int([[1, 2, 1], [2, 4, 0]]) == (0, None)
        # zero leading pivot: M = [[0, 1], [1, 0]], det -1, M^{-1} = M
        assert ratlinalg.det_solve_int([[0, 1, 1, 0], [1, 0, 0, 1]]) == (-1, [[0, -1], [-1, 0]])


class TestSerialization:
    """The package writes rationals into JSON as `str(Fraction)`;
    `oracle.rational_from_str` reads them back and refuses any other
    literal, so the tests that use it check the format too."""

    def test_rational_strings(self):
        assert M([[F(-1, 3), F(4, 2)]]).to_strings() == [["-1/3", "2"]]
        assert rational_from_str("-7/4") == F(-7, 4)
        assert rational_from_str("12") == 12

    @pytest.mark.parametrize("bad", ["1.5", "3/-4", "/3", "2/", "a", "1/0", ""])
    def test_rejects_non_rational_literals(self, bad):
        with pytest.raises(ValueError):
            rational_from_str(bad)

    def test_matrix_round_trip(self):
        a = M([[F(1, 2), -3], [0, F(7, 5)]])
        assert M([[rational_from_str(e) for e in row] for row in a.to_strings()]) == a
        assert a.to_strings() == [["1/2", "-3"], ["0", "7/5"]]

    def test_vector_round_trip(self):
        # the rational fields of a report, {0, 101, 110} in H_3
        rep = identities.full_report(PointSet.from_bits(3, [0, 0b101, 0b011]))
        js = rep.to_json_dict()
        for name in ("det_D", "det_G", "vol_sq", "gram_quad", "dinv_ones"):
            assert rational_from_str(js[name]) == getattr(rep, name)
        assert js["dinv_ones"] == "3/4"


def test_det_int_matches_wrapper():
    # against Gauss-Jordan over Fraction: det M = 1 / det M^{-1}, and
    # det M^{-1} = det_int(k M^{-1}) / k^d for a common denominator k
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        det = det_int([r[:] for r in rows])
        if det == 0:
            with pytest.raises(SingularMatrixError):
                inverse_oracle(M(rows))
            continue
        inv = inverse_oracle(M(rows)).entries
        k = lcm(*(e.denominator for row in inv for e in row))
        assert F(k**d, det_int([[int(e * k) for e in row] for row in inv])) == det
