import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedist.errors import DimensionError, SingularMatrixError
from cubedist.ratlinalg import (
    RationalMatrix,
    RationalVector,
    det_int,
    ones,
    rank_int,
    rational_from_str,
    rational_to_str,
)
from oracle import leibniz_det, matmul

F = Fraction


def M(rows):
    return RationalMatrix.from_rows(rows)


small_ints = st.integers(min_value=-6, max_value=6)


def square_matrix(dim):
    return st.lists(
        st.lists(small_ints, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    )


class TestDet:
    def test_two_by_two(self):
        assert M([[0, 1], [1, 0]]).det() == -1
        assert M([[2, 1], [1, 2]]).det() == 3

    def test_identity(self):
        assert RationalMatrix.identity(4).det() == 1

    def test_empty_matrix(self):
        assert M([]).det() == 1

    def test_rational_entries(self):
        assert M([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]).det() == F(1, 10) - F(1, 12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            M([[1, 2, 3], [4, 5, 6]]).det()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=5).flatmap(square_matrix))
    def test_matches_permutation_expansion(self, rows):
        assert M(rows).det() == leibniz_det(rows)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(square_matrix(d), square_matrix(d))
        )
    )
    def test_multiplicative(self, pair):
        a, b = M(pair[0]), M(pair[1])
        assert M(matmul(pair[0], pair[1])).det() == a.det() * b.det()


class TestRank:
    def test_zero_matrix(self):
        assert M([[0] * 3] * 3).rank() == 0

    def test_identity(self):
        assert RationalMatrix.identity(3).rank() == 3

    def test_dependent_rows(self):
        # row3 = row1 - row2
        assert M([[1, 0, 1], [1, 1, 0], [0, -1, 1]]).rank() == 2

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
        eye = RationalMatrix.identity(3)
        assert eye.inverse() == eye

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
        a = M(rows)
        if a.det() == 0:
            return
        assert M(matmul(a.entries, a.inverse().entries)) == RationalMatrix.identity(a.rows)


class TestQuadFormAndBorder:
    def test_gram_examples(self):
        # Gram matrices of {(1,1,1),(1,1,0)} and {(1,0,1),(1,1,0)}
        assert M([[3, 2], [2, 2]]).quad_form_inv(RationalVector.of([3, 2])) == 3
        assert M([[2, 1], [1, 2]]).quad_form_inv(RationalVector.of([2, 2])) == F(8, 3)

    def test_identity_quad(self):
        assert RationalMatrix.identity(5).quad_form_inv(ones(5)) == 5

    def test_quad_form_equals_inverse_route(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
            sym = [[rows[i][j] + rows[j][i] for j in range(d)] for i in range(d)]
            a = M(sym)
            if a.det() == 0:
                continue
            v = RationalVector.of([rng.randint(-5, 5) for _ in range(d)])
            assert a.quad_form_inv(v) == v.dot(a.inverse().matvec(v))

    def test_singular_quad_raises(self):
        with pytest.raises(SingularMatrixError):
            M([[1, 1], [1, 1]]).quad_form_inv(RationalVector.of([1, 2]))

    def test_quad_dim_mismatch(self):
        with pytest.raises(DimensionError):
            M([[1, 0], [0, 1]]).quad_form_inv(RationalVector.of([1, 2, 3]))

    def test_schur_block_determinant(self):
        # det [[W, X], [Y, Z]] = det(Z) det(W - X Z^{-1} Y) for invertible Z
        rng = random.Random(17)
        done = 0
        while done < 120:
            j, k = rng.randint(1, 3), rng.randint(1, 3)
            w = [[rng.randint(-4, 4) for _ in range(j)] for _ in range(j)]
            x = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(j)]
            y = [[rng.randint(-4, 4) for _ in range(j)] for _ in range(k)]
            z = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            zm = M(z)
            if zm.det() == 0:
                continue
            done += 1
            block = M(
                [w[i] + x[i] for i in range(j)] + [y[i] + z[i] for i in range(k)]
            )
            schur_rows = [
                [
                    F(w[a][b])
                    - sum(
                        F(x[a][c]) * zm.inverse().entry(c, d) * F(y[d][b])
                        for c in range(k)
                        for d in range(k)
                    )
                    for b in range(j)
                ]
                for a in range(j)
            ]
            assert block.det() == zm.det() * M(schur_rows).det()


class TestSolve:
    def test_solve_known_system(self):
        a = M([[2, 1], [1, 2]])
        w = a.solve(RationalVector.of([3, 3]))
        assert list(w) == [1, 1]

    def test_solve_dim_mismatch(self):
        with pytest.raises(DimensionError):
            M([[1, 0], [0, 1]]).solve(RationalVector.of([1]))

    def test_solve_singular(self):
        with pytest.raises(SingularMatrixError):
            M([[1, 1], [2, 2]]).solve(RationalVector.of([1, 1]))


class TestSerialization:
    def test_rational_strings(self):
        assert rational_to_str(F(-1, 3)) == "-1/3"
        assert rational_to_str(F(4, 2)) == "2"
        assert rational_from_str("-7/4") == F(-7, 4)
        assert rational_from_str("12") == 12

    @pytest.mark.parametrize("bad", ["1.5", "3/-4", "/3", "2/", "a", "1/0", ""])
    def test_rejects_non_rational_literals(self, bad):
        with pytest.raises(ValueError):
            rational_from_str(bad)

    def test_matrix_round_trip(self):
        a = M([[F(1, 2), -3], [0, F(7, 5)]])
        assert RationalMatrix.from_strings(a.to_strings()) == a
        assert a.to_strings() == [["1/2", "-3"], ["0", "7/5"]]

    def test_vector_round_trip(self):
        v = RationalVector.of([F(-2, 9), 4])
        assert RationalVector.from_strings(v.to_strings()) == v


def test_det_int_matches_wrapper():
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        assert det_int([r[:] for r in rows]) == M(rows).det()
