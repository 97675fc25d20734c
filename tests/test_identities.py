import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubedist import cube, identities, ratlinalg, trees, verify
from cubedist.cube import PointSet
from cubedist.errors import (
    CubedistError,
    DependenceError,
    IndependenceError,
    InvariantError,
    SingularMatrixError,
)
from cubedist.ratlinalg import RationalMatrix, det_int
from oracle import (
    bordered,
    coords,
    count_calls,
    distance_matrix_from_coords,
    gram_quad_oracle,
    kernel_witness_oracle,
    leibniz_det,
    matvec,
)

F = Fraction

# Reference sets used throughout: the H_3 example with det -12, the two
# pairs with distinct <G^-1 u,u>, and the full (dependent) square.
H3_SET = PointSet.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
PAIR_A = PointSet.from_coords([(0, 0, 0), (1, 1, 1), (1, 1, 0)])
PAIR_B = PointSet.from_coords([(0, 0, 0), (1, 0, 1), (1, 1, 0)])
FULL_H2 = PointSet.from_bits(2, [0, 1, 2, 3])


class TestDetViaBorderedGram:
    def test_h3_example(self):
        assert identities.det_via_bordered_gram(H3_SET) == -12
        # independent confirmation by permutation expansion
        assert leibniz_det(distance_matrix_from_coords(coords(H3_SET))) == -12

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_two_point_sets(self, k):
        s = PointSet.from_bits(6, [0, (1 << k) - 1])
        assert identities.det_via_bordered_gram(s) == -(k * k)

    def test_dependent_set_gives_zero(self):
        assert identities.det_via_bordered_gram(FULL_H2) == 0

    def test_requires_normalized(self):
        # No normalized set is required any more: {1, 2} of H_2 has D = [[0, 2], [2, 0]].
        s = PointSet.from_bits(2, [1, 2])
        assert identities.det_via_bordered_gram(s) == -4
        assert identities.det_via_bordered_gram(cube.normalize(s)) == -4
        assert leibniz_det(distance_matrix_from_coords(coords(s))) == -4

    def test_matches_direct_elimination_randomly(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 5)
            size = rng.randint(2, min(7, 1 << n))
            s = PointSet.from_bits(n, [0] + rng.sample(range(1, 1 << n), size - 1))
            expected = leibniz_det(cube.distance_rows(s.bits))
            assert identities.det_via_bordered_gram(s) == expected
            assert identities.det_distance_matrix(s) == expected


class TestDetViaGramQuad:
    def test_derived_example_16(self):
        # oracle first: det [[0,2,2],[2,0,2],[2,2,0]] by permutation expansion
        assert leibniz_det(distance_matrix_from_coords(coords(PAIR_B))) == 16
        assert identities.det_via_gram_quad(PAIR_B) == 16

    def test_derived_example_12(self):
        assert leibniz_det(distance_matrix_from_coords(coords(PAIR_A))) == 12
        assert identities.det_via_gram_quad(PAIR_A) == 12

    def test_h3_example(self):
        assert identities.det_via_gram_quad(H3_SET) == -12

    def test_dependent_rejected(self):
        with pytest.raises(DependenceError):
            identities.det_via_gram_quad(FULL_H2)


class TestKernelWitness:
    def test_h2_square(self):
        c = identities.kernel_witness(FULL_H2)
        assert c == (-1, 1, 1, -1)
        d = distance_matrix_from_coords(coords(FULL_H2))
        assert matvec(d, c) == [0, 0, 0, 0]

    def test_random_parallelograms(self):
        # x, y with disjoint supports: 0, x, x+y, y is a genuine
        # parallelogram and the tail carries the dependence x - (x+y) + y = 0
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(2, 6)
            mask = rng.randrange(1, 1 << n)
            sub = rng.randrange(0, 1 << n) & mask
            x, y = sub, mask ^ sub
            if x == 0 or y == 0:
                continue
            s = PointSet.from_bits(n, [0, x, x | y, y])
            c = identities.kernel_witness(s)
            assert any(c) and sum(c) == 0
            assert matvec(cube.distance_rows(s.bits), c) == [0] * 4

    def test_oversized_random_sets(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(2, 4)
            m = rng.randint(n + 1, min(2 ** n - 1, n + 3))
            s = PointSet.from_bits(n, [0] + rng.sample(range(1, 1 << n), m))
            c = identities.kernel_witness(s)
            assert any(c) and sum(c) == 0
            assert matvec(cube.distance_rows(s.bits), c) == [0] * (m + 1)

    def test_independent_rejected(self):
        with pytest.raises(IndependenceError):
            identities.kernel_witness(H3_SET)


@st.composite
def _random_tails(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, min(2 * n + 3, (1 << n) - 1)))
    tail = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=m, max_size=m, unique=True))
    return n, tail


@st.composite
def _dependent_tails(draw, dims=(2, 8)):
    """Tails holding x, y and x | y for disjoint x, y, in random order."""
    n = draw(st.integers(*dims))
    x = draw(st.integers(1, (1 << n) - 1))
    y = draw(st.integers(1, (1 << n) - 1)) & ~x
    assume(y)
    others = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=n))
    tail = draw(st.permutations(sorted(others | {x, y, x | y})))
    return n, tail


def _witness_or_error(fn, s):
    try:
        return fn(s)
    except IndependenceError:
        return IndependenceError


class TestKernelWitnessAgainstOracle:
    """The Gram-kernel witness equals the Fraction-elimination one."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_random_tails())
    def test_random_tails(self, case):
        n, tail = case
        s = PointSet.from_bits(n, [0, *tail])
        want = _witness_or_error(kernel_witness_oracle, s)
        assert _witness_or_error(identities.kernel_witness, s) == want
        assert (want is IndependenceError) == cube.affinely_independent(s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dependent_tails())
    def test_dependent_tails(self, case):
        n, tail = case
        s = PointSet.from_bits(n, [0, *tail])
        assert identities.kernel_witness(s) == kernel_witness_oracle(s)

    def test_every_dependent_h3_tail(self):
        checked = 0
        for m in range(1, 8):
            for tail in combinations(range(1, 8), m):
                s = PointSet.from_bits(3, (0,) + tail)
                if cube.affinely_independent(s):
                    continue
                checked += 1
                assert identities.kernel_witness(s) == kernel_witness_oracle(s)
                _check_certificate(3, tail)
        assert checked == 70


def _check_certificate(n, tail):
    """On a dependent set the three eliminated determinants are 0, every
    product the certificate reads off the bit patterns vanishes on the
    built matrices too, and `check_point_set` passes its four counters."""
    s = PointSet.from_bits(n, (0, *tail))
    assert identities.det_distance_matrix(s) == 0
    assert identities.det_via_bordered_gram(s) == 0
    assert identities.bordered_distance_det(s) == 0
    c = identities.kernel_witness(s)
    g, u = s.gram
    assert any(c) and sum(c) == 0
    assert matvec(s.d_rows, c) == [0] * len(c)
    assert matvec(g, c[1:]) == [0] * len(tail)
    assert sum(a * b for a, b in zip(u, c[1:])) == 0
    report = verify.SweepReport("certificate")
    verify.check_point_set(tuple(tail), n, report)
    counts = {name: (k.checked, k.failed) for name, k in report.counters.items()}
    dependent_counters = (
        "det_via_bordered_gram", "bordered_distance_det", "affine_criterion", "dependent_kernel"
    )
    assert counts == {name: (1, 0) for name in dependent_counters}


@st.composite
def _oversized_tails(draw, dims):
    """More tail points than coordinates: dependent without a rank test."""
    n = draw(st.integers(*dims))
    m = draw(st.integers(n + 1, (1 << n) - 1))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), min_size=m, max_size=m, unique=True))


class TestDependentCertificate:
    """`check_point_set` certifies a dependent set from its kernel witness
    alone; the eliminations it skips are the oracle. The H_3 half runs in
    `TestKernelWitnessAgainstOracle.test_every_dependent_h3_tail`."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(_dependent_tails(dims=(4, 6)), _oversized_tails(dims=(4, 6))))
    def test_dependent_tails_h4_to_h6(self, case):
        _check_certificate(*case)


class TestGramQuad:
    def test_pair_values(self):
        assert identities.gram_quad(PAIR_A) == 3
        assert identities.gram_quad(PAIR_B) == F(8, 3)

    def test_full_dimensional_value(self):
        assert identities.gram_quad(H3_SET) == 3

    def test_dependent_rejected(self):
        with pytest.raises(DependenceError):
            identities.gram_quad(FULL_H2)


class TestBorderedDistanceDet:
    def test_h3_example(self):
        assert identities.bordered_distance_det(H3_SET) == 8
        d = distance_matrix_from_coords(coords(H3_SET))
        bordered = [[0] + [1] * 4] + [[1] + row for row in d]
        assert leibniz_det(bordered) == 8

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_two_point_sets(self, k):
        s = PointSet.from_bits(5, [0, (1 << k) - 1])
        assert identities.bordered_distance_det(s) == 2 * k

    def test_dependent_gives_zero(self):
        assert identities.bordered_distance_det(FULL_H2) == 0

    def test_wrong_determinant_raises_and_verify_counts_it(self, monkeypatch):
        real = identities.det_int
        monkeypatch.setattr(identities, "det_int", lambda rows: real(rows) + 1)
        with pytest.raises(InvariantError):
            identities.bordered_distance_det(H3_SET)
        report = verify.SweepReport("injected")
        verify.check_point_set(H3_SET.bits[1:], 3, report)
        assert report.counter("bordered_distance_det").failed == 1


class TestCheckPointSetSharesWork:
    """One distance build, one Gram build, one Gram-kernel pass, one
    rank test and one [G | u] solve pass per set; the checks that read them
    still compare two routes. `check_point_set` builds a fresh set, so
    no cache filled elsewhere hides a build."""

    def _count(self, monkeypatch, tail, n):
        calls = count_calls(
            monkeypatch, cube, "gram_eliminate", "rank_of_bits", "gram_rows", "distance_rows"
        )
        count_calls(monkeypatch, identities, "det_solve_int", calls=calls)
        report = verify.SweepReport("count")
        verify.check_point_set(tail, n, report)
        assert report.ok
        return calls

    def test_independent_set(self, monkeypatch):
        calls = self._count(monkeypatch, H3_SET.bits[1:], 3)
        assert calls == {
            "gram_eliminate": 1,
            "rank_of_bits": 1,
            "gram_rows": 1,
            "distance_rows": 1,
            "det_solve_int": 1,
        }

    def test_dependent_set(self, monkeypatch):
        calls = self._count(monkeypatch, FULL_H2.bits[1:], 2)
        # the kernel witness certifies every zero from the bit patterns,
        # so neither D nor G is built; m = 3 > n = 2 needs no rank test
        assert calls == {"gram_eliminate": 1}

    @pytest.mark.parametrize(
        "bump",
        [(1,), (1, -1)],
        ids=["one-entry", "sum-kept"],
    )
    def test_wrong_witness_fails_dependent_kernel(self, monkeypatch, bump):
        """A witness with its first entries moved by `bump` fails every
        counter it certifies; the sum-kept case keeps sum c = 0 and breaks
        the products, since D e_0 != D e_1."""
        real = identities.kernel_witness

        def wrong(s):
            c = real(s)
            return tuple(v + d for v, d in zip(c, bump)) + c[len(bump):]

        monkeypatch.setattr(identities, "kernel_witness", wrong)
        for n, tail in [(2, FULL_H2.bits[1:]), (3, (1, 2, 3)), (3, (1, 2, 4, 7))]:
            report = verify.SweepReport("injected")
            verify.check_point_set(tail, n, report)
            for name in ("dependent_kernel", "det_via_bordered_gram", "bordered_distance_det"):
                assert report.counter(name).failed == 1, name

    def test_wrong_solve_fails_both_solve_checks(self, monkeypatch):
        real = identities.det_solve_int

        def wrong(rows):  # G^{-1}u + 1, as det G * G^{-1}u + det G
            det, ys = real(rows)
            return det, [[y + det for y in row] for row in ys]

        monkeypatch.setattr(identities, "det_solve_int", wrong)
        report = verify.SweepReport("injected")
        verify.check_point_set(H3_SET.bits[1:], 3, report)
        failed = {name for name, c in report.counters.items() if c.failed}
        assert {"gram_quad_two_routes", "det_via_gram_quad"} <= failed

    def test_wrong_kernel_corner_spares_the_solve_route(self, monkeypatch):
        real = cube.gram_eliminate

        def wrong(tail):
            points, hists, pivots, borders, corner, dependent = real(tail)
            return points, hists, pivots, borders, corner + 1, dependent

        monkeypatch.setattr(cube, "gram_eliminate", wrong)
        report = verify.SweepReport("injected")
        verify.check_point_set(H3_SET.bits[1:], 3, report)
        assert report.counter("gram_quad_two_routes").failed == 1
        assert report.counter("det_via_gram_quad").failed == 0


class TestSweepsCountRouteErrors:
    """A second route that raises fails the counters reading it; the
    sweep itself returns normally."""

    @staticmethod
    def _failed(report):
        return {name for name, c in report.counters.items() if c.failed}

    @pytest.mark.parametrize(
        "rank,tail,n",
        [(len, (1, 2, 3), 3), (lambda tail: 0, (1, 2, 4), 3)],
        ids=["claims-independent", "claims-dependent"],
    )
    def test_wrong_rank_test(self, monkeypatch, rank, tail, n):
        monkeypatch.setattr(cube, "rank_of_bits", lambda bits, n: rank(bits))
        report = verify.SweepReport("injected")
        verify.check_point_set(tail, n, report)
        assert self._failed(report) == {"affine_criterion"}

    def test_singular_tree_distance_matrix(self, monkeypatch):
        real = trees.tree_rows_and_bits

        def singular(t):
            rows, bits = real(t)
            rows[1] = rows[0][:]
            return rows, bits

        monkeypatch.setattr(trees, "tree_rows_and_bits", singular)
        report = verify.SweepReport("injected")
        verify.check_tree(trees.prufer_to_tree((0, 0), 4), report, deep=True)
        assert "inverse_entries_direct" in self._failed(report)

    def test_embedding_repeats_a_point(self, monkeypatch):
        real = trees.tree_rows_and_bits

        def repeated(t):
            rows, bits = real(t)
            return rows, [*bits[:-1], 0]

        monkeypatch.setattr(trees, "tree_rows_and_bits", repeated)
        report = verify.SweepReport("injected")
        verify.check_tree(trees.prufer_to_tree((0, 0), 4), report, deep=True)
        assert "embedded_dinv_value" in self._failed(report)

    def test_one_wrong_embedding_bit(self, monkeypatch):
        """Rows and bits come from one traversal; a wrong bit in one image
        still fails the isometry check, and only it: the star's images
        1, 2, 5 stay independent, so the embedded set keeps 2/n."""
        real = trees.tree_rows_and_bits

        def flipped(t):
            rows, bits = real(t)
            bits[3] ^= 1
            return rows, bits

        monkeypatch.setattr(trees, "tree_rows_and_bits", flipped)
        report = verify.SweepReport("injected")
        verify.check_tree(trees.prufer_to_tree((0, 0), 4), report, deep=True)
        assert self._failed(report) == {"embedding_isometry"}


def test_gram_solve_eliminates_once(monkeypatch):
    """det G and <G^{-1}u, u> come from one elimination of [G | u]."""
    s = PointSet(PAIR_B.n, PAIR_B.bits)
    want = gram_quad_oracle(s)
    assert want == (3, F(8, 3))
    calls = count_calls(monkeypatch, ratlinalg, "_echelon")
    assert identities.gram_solve(s) == want
    assert calls == {"_echelon": 1}


class TestOneRoutePerAnswer:
    """The per-set invariants read one Gram-kernel pass, and the
    rational route learns dependence from its own determinant: neither
    runs a rank test."""

    @pytest.mark.parametrize(
        "name,kernel_passes",
        [("gram_quad", 1), ("dinv_ones", 1), ("det_via_gram_quad", 0)],
    )
    @pytest.mark.parametrize("s", [H3_SET, PAIR_B, FULL_H2], ids=["h3", "pair", "dependent"])
    def test_no_rank_test(self, monkeypatch, name, kernel_passes, s):
        s = PointSet(s.n, s.bits)  # a fresh set: no kernel cached by an earlier test
        calls = count_calls(monkeypatch, cube, "rank_of_bits", "gram_eliminate")
        try:
            getattr(identities, name)(s)
        except (DependenceError, SingularMatrixError):
            pass
        assert calls["rank_of_bits"] == 0
        assert calls["gram_eliminate"] == kernel_passes


def _value_or_error(fn, s):
    try:
        return fn(s)
    except CubedistError as exc:
        return type(exc)


class TestGramKernelAgainstOracle:
    def test_every_normalized_h4_subset(self):
        """gram_quad, dinv_ones and det_via_gram_quad equal the rank test
        plus Fraction solve they replaced, or raise the same error."""
        independent = 0
        for m in range(1, 16):
            for tail in combinations(range(1, 16), m):
                s = PointSet.from_bits(4, (0,) + tail)
                want = _value_or_error(gram_quad_oracle, s)
                if want is DependenceError:
                    assert _value_or_error(identities.gram_quad, s) is DependenceError
                    assert _value_or_error(identities.dinv_ones, s) is SingularMatrixError
                    assert _value_or_error(identities.det_via_gram_quad, s) is DependenceError
                    continue
                independent += 1
                det_g, quad = want
                assert identities.gram_quad(s) == quad
                assert identities.dinv_ones(s) == 2 / quad
                assert identities.det_via_gram_quad(s) == (-1) ** m * 2 ** (m - 1) * det_g * quad
        assert independent == 15 + 105 + 430 + 940


@st.composite
def _unnormalized_sets(draw):
    """Sets whose first point, the translation base, is not the origin."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, min(2 * n + 2, 1 << n)))
    bits = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k, unique=True))
    assume(bits[0])
    return PointSet.from_bits(n, bits)


_SET_FUNCTIONS = (
    identities.kernel_quad,
    identities.det_distance_matrix,
    identities.det_via_bordered_gram,
    identities.det_via_gram_quad,
    identities.gram_solve,
    identities.gram_quad,
    identities.kernel_witness,
    identities.bordered_distance_det,
    identities.dinv_ones,
    identities.full_report,
    cube.affinely_independent,
)


class TestTranslation:
    """No function needs a normalized set: each reads the set's own
    translation by x_0, so it answers exactly as on `normalize(s)`."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_unnormalized_sets())
    def test_unnormalized_sets_match_normalized(self, s):
        sn = cube.normalize(s)
        assert sn != s
        for fn in _SET_FUNCTIONS:
            assert _value_or_error(fn, s) == _value_or_error(fn, sn), fn.__name__
        if not cube.affinely_independent(s):
            c = identities.kernel_witness(s)
            assert any(c) and sum(c) == 0
            assert matvec(s.d_rows, c) == [0] * len(c)


class TestDinvOnes:
    def test_h3_example(self):
        assert identities.dinv_ones(H3_SET) == F(2, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_two_point_sets(self, k):
        s = PointSet.from_bits(6, [0, (1 << k) - 1])
        assert identities.dinv_ones(s) == F(2, k)

    def test_full_dimensional_sets_give_2_over_n(self):
        for tail in combinations(range(1, 8), 3):
            s = PointSet.from_bits(3, (0,) + tail)
            if cube.affinely_independent(s):
                assert identities.dinv_ones(s) == F(2, 3)

    def test_matches_direct_inversion(self):
        for s in (H3_SET, PAIR_A, PAIR_B):
            d = RationalMatrix.from_rows(cube.distance_rows(s.bits))
            direct = sum(sum(row) for row in d.inverse().entries)
            assert identities.dinv_ones(s) == direct

    def test_dependent_rejected(self):
        with pytest.raises(SingularMatrixError):
            identities.dinv_ones(FULL_H2)

    def test_translation_invariant(self):
        shifted = PointSet.from_bits(3, [b ^ 5 for b in H3_SET.bits])
        assert identities.dinv_ones(shifted) == F(2, 3)


class TestFullReport:
    def test_dependent_report(self):
        rep = identities.full_report(FULL_H2)
        assert rep.det_D == 0
        assert not rep.affinely_independent
        assert rep.gram_quad is None and rep.dinv_ones is None
        js = rep.to_json_dict()
        assert js["det_D"] == "0"
        assert "dinv_ones" not in js and "gram_quad" not in js

    def test_h3_report(self):
        rep = identities.full_report(H3_SET)
        assert rep.det_D == -12
        assert rep.dinv_ones == F(2, 3)
        assert rep.gram_quad == 3
        assert rep.det_G == 1 and rep.vol_sq == 1
        assert rep.affinely_independent

    def test_pair_report(self):
        rep = identities.full_report(PAIR_B)
        assert rep.det_D == 16
        assert rep.gram_quad == F(8, 3)
        assert rep.dinv_ones == F(3, 4)
        js = rep.to_json_dict()
        assert js["dinv_ones"] == "3/4"

    def test_every_h3_subset_matches_separate_routes(self):
        for m in range(1, 8):
            for tail in combinations(range(1, 8), m):
                s = PointSet.from_bits(3, (0,) + tail)
                rep = identities.full_report(s)
                det_g = det_int(cube.gram_rows(tail)[0])
                independent = cube.affinely_independent(s)
                gq = identities.gram_quad(s) if independent else None
                assert rep.det_D == det_int(cube.distance_rows(s.bits))
                assert rep.det_G == det_g and rep.vol_sq == det_g
                assert rep.affinely_independent == independent
                assert rep.gram_quad == gq
                assert rep.dinv_ones == (2 / gq if independent else None)

    def test_report_normalizes_internally(self):
        rep = identities.full_report(PointSet.from_bits(2, [1, 2]))
        assert rep.det_D == -4  # distance 2 pair
        assert rep.dinv_ones == 1


class TestCrossIdentities:
    def test_full_dimensional_determinant_formula(self):
        # m = n: det(D) = (-1)^n n 2^(n-1) det(G), exhaustively for n = 3
        for tail in combinations(range(1, 8), 3):
            s = PointSet.from_bits(3, (0,) + tail)
            det_d = identities.det_distance_matrix(s)
            det_g = det_int(cube.gram_rows(tail)[0])
            if cube.affinely_independent(s):
                assert det_d == -3 * 4 * det_g
            else:
                assert det_d == 0

    def test_dinv_times_gram_quad_is_two(self):
        rng = random.Random(53)
        done = 0
        while done < 40:
            n = rng.randint(2, 5)
            m = rng.randint(1, n)
            s = PointSet.from_bits(n, [0] + sorted(rng.sample(range(1, 1 << n), m)))
            if not cube.affinely_independent(s):
                continue
            done += 1
            assert identities.dinv_ones(s) * identities.gram_quad(s) == 2
            assert identities.dinv_ones(s) > 0

    def test_row_reduction_to_bordered_gram(self):
        # the row/column reduction sends D to [[0, u^T], [u, -2G]]
        # without changing the determinant
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(2, 5)
            size = rng.randint(2, min(7, 1 << n))
            s = PointSet.from_bits(n, [0] + sorted(rng.sample(range(1, 1 << n), size - 1)))
            g, u = cube.gram_rows(s.bits[1:])
            reduced = bordered([[-2 * e for e in row] for row in g], u, 0)
            assert det_int(cube.distance_rows(s.bits)) == det_int(reduced)
