import json
import math
import random
import warnings
from itertools import combinations, islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedist import cube, identities, negtype
from cubedist.cube import PointSet
from cubedist.errors import (
    BudgetExceededError,
    CapExceededError,
    CubedistError,
    DomainError,
    NotNegativeTypeError,
)
from cubedist.ratlinalg import det_int
from oracle import (
    count_calls,
    earliest_root_oracle,
    leibniz_det,
    sanchez_wp_oracle,
    strict_p_negative_type_oracle,
    transform_scaling_check_oracle,
)

PATH3 = PointSet.from_coords([(0, 0), (1, 0), (1, 1)])
FULL_H2 = PointSet.from_bits(2, [0, 1, 2, 3])
H3_SET = PointSet.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
TWO_POINTS = PointSet.from_coords([(0, 0, 0), (1, 1, 0)])
CORNER3 = PointSet.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
# distances up to 3 on 5 points: 2 p log2(3) + 2 log2(8) reaches 1023 at p = 320.8
WIDE5 = PointSet.from_bits(4, (0, 3, 5, 9, 14))


def random_sets(seed, count, dims=(3, 4, 5)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(dims)
        size = rng.randint(2, min(8, 1 << n))
        out.append(PointSet.from_bits(n, [0] + sorted(rng.sample(range(1, 1 << n), size - 1))))
    return out


class TestDpMatrix:
    def test_p1_equals_distance_matrix(self):
        dp = negtype.dp_matrix(H3_SET, 1.0)
        assert np.array_equal(dp, np.array(cube.distance_rows(H3_SET.bits), float))

    def test_path_squared(self):
        dp = negtype.dp_matrix(PATH3, 2.0)
        off = sorted([dp[0, 1], dp[1, 2], dp[0, 2]])
        assert off == [1.0, 1.0, 4.0]

    def test_cube_power(self):
        dp = negtype.dp_matrix(PATH3, 3.0)
        assert dp[0, 2] == 8.0

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            negtype.dp_matrix(PATH3, 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, p):
        # every exponent-taking check goes through dp_matrix, so none of
        # them reaches the eigenvalue solver with a non-finite exponent
        s = PointSet.from_bits(3, (0, 1, 3, 7))
        for fn in (negtype.dp_matrix, negtype.is_p_negative_type, negtype.strict_p_negative_type):
            with pytest.raises(DomainError):
                fn(s, p)


class TestIsPNegativeType:
    def test_p1_always_holds(self):
        for s in random_sets(61, 25):
            assert negtype.is_p_negative_type(s, 1.0)

    def test_path_at_two_and_three(self):
        assert negtype.is_p_negative_type(PATH3, 2.0)
        assert not negtype.is_p_negative_type(PATH3, 3.0)

    def test_monotone_in_p(self):
        # once negative type fails on an increasing grid it stays failed
        for s in random_sets(67, 15):
            grid = [1.0 + 0.25 * k for k in range(0, 25)]
            values = [negtype.is_p_negative_type(s, p) for p in grid]
            switched = False
            for v in values:
                if switched:
                    assert not v
                elif not v:
                    switched = True


class TestSanchezWp:
    def test_dependent_exact(self):
        rep = negtype.sanchez_wp(FULL_H2)
        assert rep.wp == 1.0
        assert rep.root_kind == negtype.ROOT_DETERMINANT
        assert rep.bracket == (1.0, 1.0)
        assert rep.residual == 0.0
        assert not rep.is_lower_bound

    def test_path_closed_form(self):
        # bordered determinant of the 3-point path is t(t-4) with t = 2^p
        for t in (1, 2, 3, 4, 5, 8):
            bordered = [
                [0, 1, 1, 1],
                [1, 0, 1, t],
                [1, 1, 0, 1],
                [1, t, 1, 0],
            ]
            assert leibniz_det(bordered) == t * (t - 4)
        rep = negtype.sanchez_wp(PATH3)
        assert abs(rep.wp - 2.0) <= 1e-6
        assert rep.root_kind == negtype.ROOT_BORDERED
        assert rep.bracket[0] <= rep.wp <= rep.bracket[1]
        assert rep.bracket[1] - rep.bracket[0] <= 1e-9

    def test_path_against_float_bisection_oracle(self):
        f = lambda p: (2.0 ** p) ** 2 - 4.0 * 2.0 ** p
        lo, hi = 1.5, 2.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) * f(lo) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(negtype.sanchez_wp(PATH3).wp - 0.5 * (lo + hi)) <= 1e-6

    def test_independent_sets_exceed_one(self):
        for s in random_sets(71, 30):
            if cube.affinely_independent(s):
                rep = negtype.sanchez_wp(s)
                assert rep.wp > 1.0 + 1e-9

    def test_two_point_set_hits_cap(self):
        rep = negtype.sanchez_wp(TWO_POINTS, cap=8.0)
        assert rep.is_lower_bound
        assert rep.root_kind == negtype.ROOT_NONE_BELOW_CAP
        assert rep.wp == 8.0
        js = rep.to_json_dict()
        assert "wp" not in js and js["wp_lower_bound"] == 8.0

    def test_bad_cap(self):
        with pytest.raises(DomainError):
            negtype.sanchez_wp(PATH3, cap=0.5)

    def test_cap_1_is_a_lower_bound(self):
        # at cap 1 the scan sees no exponent past 1: an independent set
        # gets the lower bound wp = 1, not a root
        corner = PointSet.from_bits(3, (0, 1, 2, 4))
        rep = negtype.sanchez_wp(corner, cap=1.0)
        assert rep.is_lower_bound and rep.wp == 1.0

    def test_grid_consistency_with_negative_type(self):
        # negative type holds below the root and fails above it
        for s in random_sets(73, 12):
            rep = negtype.sanchez_wp(s)
            if rep.is_lower_bound:
                continue
            p = 1.0
            while p < min(rep.wp + 2.0, rep.cap):
                if p < rep.wp:
                    assert negtype.is_p_negative_type(s, p)
                elif p > rep.wp + 1e-6:
                    assert not negtype.is_p_negative_type(s, p)
                p += 0.25


class TestStrictNegativeType:
    def test_independent_at_one(self):
        assert negtype.strict_p_negative_type(H3_SET, 1.0)

    def test_dependent_at_one(self):
        assert not negtype.strict_p_negative_type(FULL_H2, 1.0)

    def test_path_at_its_supremum(self):
        assert not negtype.strict_p_negative_type(PATH3, 2.0)

    def test_raises_beyond_supremum(self):
        with pytest.raises(NotNegativeTypeError):
            negtype.strict_p_negative_type(PATH3, 3.0)

    def test_positivity_feeds_strictness(self):
        for s in random_sets(79, 25):
            if cube.affinely_independent(s):
                assert identities.dinv_ones(s) > 0
                assert negtype.strict_p_negative_type(s, 1.0)


class TestMurugan:
    def test_h3_all_true(self):
        c = negtype.murugan_classify(H3_SET)
        assert c.consistent and c.affinely_independent

    def test_full_h2_all_false(self):
        c = negtype.murugan_classify(FULL_H2)
        assert c.consistent and not c.affinely_independent

    def test_two_points_all_true(self):
        c = negtype.murugan_classify(TWO_POINTS)
        assert c.consistent and c.affinely_independent

    def test_exhaustive_n3(self):
        for m in range(1, 8):
            for tail in combinations(range(1, 8), m):
                c = negtype.murugan_classify(PointSet.from_bits(3, (0,) + tail))
                assert c.consistent

    @pytest.mark.parametrize(
        "s",
        [WIDE5, TWO_POINTS, PointSet.from_bits(64, (0, *(1 << k for k in range(64))))],
        ids=["wide5", "pair", "simplex64"],
    )
    def test_refuses_no_set(self, s):
        # every set is independent, and WIDE5's scan would overflow past
        # cap 320; the default cap keeps every scan below the limit
        c = negtype.murugan_classify(s)
        assert c.consistent and c.affinely_independent


def _h3_subsets():
    for m in range(1, 8):
        for tail in combinations(range(1, 8), m):
            yield PointSet.from_bits(3, (0,) + tail)


class TestExactAtOne:
    """At p = 1 negative type, strict negative type and a dependent set's
    classification are decided with no floating point: numpy's power,
    slogdet and eigvalsh raise, and the answers are still the
    float-checked ones."""

    def test_no_floating_point(self, monkeypatch):
        subsets = list(_h3_subsets())
        want = [strict_p_negative_type_oracle(s, 1.0) for s in subsets]
        assert want == [cube.affinely_independent(s) for s in subsets]

        def refuse(*args, **kwargs):
            raise AssertionError("floating point at p = 1")

        monkeypatch.setattr(np, "power", refuse)
        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        # fresh sets: nothing cached by the oracle
        fresh = [PointSet(s.n, s.bits) for s in subsets]
        assert [negtype.strict_p_negative_type(s, 1.0) for s in fresh] == want
        assert all(negtype.is_p_negative_type(s, 1.0) for s in fresh)
        dependent = [s for s, independent in zip(fresh, want) if not independent]
        assert len(dependent) == 127 - 57  # 57 affinely independent H_3 tails
        for s in dependent:
            assert negtype.murugan_classify(s) == negtype.MuruganClassification(False, False, False)

    def test_tolerance_below_rounding(self):
        """Every cube subset has 1-negative type. A float eigenvalue check
        at tol=1e-17 read rounding as positive on 1,577 of these 2,241 H_4
        sets, the first 200 tails of each size."""
        tails = [t for k in range(1, 16) for t in islice(combinations(range(1, 16), k), 200)]
        assert len(tails) == 2241
        assert all(negtype.is_p_negative_type(PointSet(4, (0, *t)), 1.0, 1e-17) for t in tails)


class TestMuruganRoutes:
    """The three views run three separate exact routes: the rank test,
    pivoting det_int, and the Gram kernel plus the scan."""

    def test_call_counts(self, monkeypatch):
        calls = count_calls(monkeypatch, cube, "rank_of_bits", "gram_eliminate", "distance_rows")
        # strict 1-negative type needs no eigenvalue check: every cube
        # subset has 1-negative type, so is_p_negative_type is not called
        count_calls(monkeypatch, negtype, "det_int", "is_p_negative_type", calls=calls)
        # a fresh set: nothing cached by an earlier test
        assert negtype.murugan_classify(PointSet(H3_SET.n, H3_SET.bits)).consistent
        assert calls == {"rank_of_bits": 1, "gram_eliminate": 1, "distance_rows": 1, "det_int": 2}

    @pytest.mark.parametrize(
        "s", [H3_SET, TWO_POINTS, FULL_H2, PATH3], ids=["h3", "pair", "dependent", "path"]
    )
    def test_one_distance_matrix_per_set(self, monkeypatch, s):
        # the same answer as the three public calls it stands for
        want = negtype.MuruganClassification(
            affinely_independent=cube.affinely_independent(s),
            strict_1_negative_type=negtype.strict_p_negative_type(s, 1.0),
            wp_exceeds_1=negtype.sanchez_wp(s).wp > 1.0,
        )
        calls = count_calls(monkeypatch, cube, "distance_rows")
        # a fresh set, since the public calls above filled the caches of s
        assert negtype.murugan_classify(PointSet(s.n, s.bits)) == want
        assert calls == {"distance_rows": 1}

    def test_scans_run_no_rank_test_and_no_det_int(self, monkeypatch):
        calls = count_calls(monkeypatch, cube, "rank_of_bits")
        count_calls(monkeypatch, negtype, "det_int", calls=calls)
        for s in (H3_SET, FULL_H2, PATH3, CORNER3):
            negtype.sanchez_wp(s)
            negtype.transform_scaling_check(s, 2.0)
        assert calls == {}

    def _consistent_on_h3(self):
        return all(negtype.murugan_classify(s).consistent for s in _h3_subsets())

    def test_wrong_kernel_is_caught(self, monkeypatch):
        real = cube.gram_eliminate

        def wrong(tail):
            points, hists, pivots, borders, corner, dependent = real(tail)
            return points, hists, pivots, borders, corner, dependent or (tail[-1], [])

        monkeypatch.setattr(cube, "gram_eliminate", wrong)
        assert not self._consistent_on_h3()

    def test_wrong_det_int_is_caught(self, monkeypatch):
        real = negtype.det_int
        monkeypatch.setattr(negtype, "det_int", lambda rows: real(rows) + 1)
        assert not self._consistent_on_h3()

    def test_wrong_rank_test_is_caught(self, monkeypatch):
        real = cube.rank_of_bits
        monkeypatch.setattr(cube, "rank_of_bits", lambda tail, n: real(tail, n) - 1)
        assert not self._consistent_on_h3()


class TestScanArguments:
    """Scan parameters are refused before any work: `tol` by every
    function that takes it, cap and grid by the scans."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cap": math.inf},
            {"cap": math.nan},
            {"cap": 0.5},
            {"grid": math.nan},
            {"grid": math.inf},
            {"grid": 0.0},
            {"grid": -0.125},
            {"tol": math.inf},
            {"tol": math.nan},
            {"tol": 0.0},
            {"tol": 1.0},
            {"tol": -1.0},
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            negtype.sanchez_wp(CORNER3, **kwargs)
        with pytest.raises(DomainError):
            negtype.transform_scaling_check(CORNER3, 2.0, **kwargs)
        if "tol" in kwargs:
            # the path has 2-negative type but not 3-negative type
            for fn in (negtype.is_p_negative_type, negtype.strict_p_negative_type):
                for p in (1.0, 3.0):
                    with pytest.raises(DomainError):
                        fn(PATH3, p, **kwargs)

    def test_grid_point_budget(self, monkeypatch):
        monkeypatch.setattr(negtype, "MAX_GRID_POINTS", 9)
        assert negtype.sanchez_wp(TWO_POINTS, cap=2.0).is_lower_bound  # 9 grid points
        with pytest.raises(BudgetExceededError):
            negtype.sanchez_wp(TWO_POINTS, cap=2.125)

    def test_transformed_scan_budget(self, monkeypatch):
        # the base scan of [1, 3] has 17 grid points; the scan of [1, 9]
        # in steps of 3/8 has 22.3, so it has its own check
        monkeypatch.setattr(negtype, "MAX_GRID_POINTS", 17)
        assert negtype.sanchez_wp(PATH3, cap=3.0).root_kind == negtype.ROOT_BORDERED
        with pytest.raises(BudgetExceededError):
            negtype.transform_scaling_check(PATH3, 3.0, cap=3.0)

    def test_nan_exponent_rejected(self):
        with pytest.raises(DomainError):
            negtype.transform_scaling_check(CORNER3, math.nan)


class TestOverflowRefusal:
    """An exponent whose D_p would overflow float64 is refused before any
    float is built: past the limit NaN signals would make the supremum
    move with the cap."""

    def test_cap_below_the_limit_keeps_the_root(self):
        rep = negtype.sanchez_wp(WIDE5, cap=300.0, grid=1.0)
        assert rep.wp == 18.0 and rep.root_kind == negtype.ROOT_DETERMINANT
        assert np.isfinite(negtype.dp_matrix(WIDE5, 320.0)).all()

    @pytest.mark.parametrize("cap,grid", [(321.0, 1.0), (2000.0, 1.0), (1e6, 100.0)])
    def test_scan_past_the_limit_refused(self, monkeypatch, cap, grid):
        monkeypatch.setattr(negtype, "_PowerSignals", None)  # refused before any float
        with pytest.raises(DomainError, match="overflows float64"):
            negtype.sanchez_wp(WIDE5, cap=cap, grid=grid)
        with pytest.raises(DomainError, match="overflows float64"):
            negtype.transform_scaling_check(WIDE5, 2.0, cap=cap, grid=grid)

    def test_exponent_past_the_limit_refused(self):
        # without the refusal numpy's LinAlgError escapes the eigenvalue solver
        for s in (WIDE5, FULL_H2):
            for fn in (
                negtype.dp_matrix, negtype.is_p_negative_type, negtype.strict_p_negative_type
            ):
                with pytest.raises(DomainError, match="overflows float64"):
                    fn(s, 1e4)

    def test_form_scale_stays_finite_below_the_limit(self):
        # sum q^2 over the 3 x 3 form reaches 36 * 3^(2p), so the bound
        # covers it: an infinite scale at p = 321.6 would read this set
        # (wp 1.9) as 321.6-negative
        s = PointSet.from_bits(4, (3, 2, 8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not negtype.is_p_negative_type(s, 321.0)
        with pytest.raises(DomainError, match="overflows float64"):
            negtype.is_p_negative_type(s, 321.6)

    @pytest.mark.parametrize("cap,grid", [(2000.0, 1.0), (1e6, 100.0)])
    def test_dependent_sets_keep_wp_1_at_any_cap(self, cap, grid):
        # x, y and x | y for disjoint x, y: dependent, distances up to 6
        for s in (FULL_H2, PointSet.from_bits(6, (0, 7, 56, 63))):
            rep = negtype.sanchez_wp(s, cap=cap, grid=grid)
            assert (rep.wp, rep.root_kind, rep.residual) == (1.0, negtype.ROOT_DETERMINANT, 0.0)
            assert negtype.transform_scaling_check(s, 2.0, cap=cap, grid=grid) == (2.0, 2.0)
            assert not negtype.murugan_classify(s).wp_exceeds_1


def _pairs():
    for n in range(2, 7):
        for x, y in combinations(range(1 << n), 2):
            yield PointSet.from_bits(n, (x, y))
    for n in range(2, 65):
        yield PointSet.from_bits(n, (0, (1 << n) - 1))


class TestPairs:
    """A pair at distance d has det D_p = -d^(2p) and bordered
    determinant 2 d^p: neither vanishes at any p, so no cap finds a root.
    A float scan once reported one for every d >= 4 ({0000, 1111}: a
    bordered root at 15.5)."""

    @pytest.mark.parametrize("cap", [1.0, 8.0, 16.0])
    def test_no_root_below_any_cap(self, monkeypatch, cap):
        monkeypatch.setattr(negtype, "_PowerSignals", None)  # no float scan
        count = 0
        for s in _pairs():
            rep = negtype.sanchez_wp(s, cap=cap)
            assert (rep.wp, rep.root_kind, rep.bracket, rep.residual) == (
                cap, negtype.ROOT_NONE_BELOW_CAP, (cap, cap), None
            )
            count += 1
        assert count == 6 + 28 + 120 + 496 + 2016 + 63

    def test_classification_unchanged(self):
        want = negtype.MuruganClassification(True, True, True)
        assert all(negtype.murugan_classify(s) == want for s in _pairs())

    def test_exempt_from_the_overflow_refusal(self):
        # distance 64: cap 1000 would overflow float64 for a larger set
        s = PointSet.from_bits(64, (0, (1 << 64) - 1))
        assert negtype.sanchez_wp(s, cap=1000.0, grid=1.0).is_lower_bound
        with pytest.raises(CapExceededError):
            negtype.transform_scaling_check(s, 2.0, cap=1000.0, grid=1.0)

    def test_oracle_agrees(self):
        s = PointSet.from_bits(4, (0, 15))
        assert _outcome(negtype.sanchez_wp, s) == _outcome(sanchez_wp_oracle, s)


class TestTransformScaling:
    def test_path_doubled(self):
        got = negtype.transform_scaling_check(PATH3, 2.0)
        assert abs(got[0] - 4.0) <= 1e-6
        assert abs(got[1] - 4.0) <= 1e-6

    def test_dependent_scales_exactly(self):
        assert negtype.transform_scaling_check(FULL_H2, 3.0) == (3.0, 3.0)

    def test_identity_at_one(self):
        a, b = negtype.transform_scaling_check(PATH3, 1.0)
        assert a == b

    def test_infinite_exponent_symbolic(self):
        a, b = negtype.transform_scaling_check(PATH3, math.inf)
        assert math.isinf(a) and math.isinf(b)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            negtype.transform_scaling_check(TWO_POINTS, 2.0)

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            negtype.transform_scaling_check(PATH3, 0.75)


class TestExactFloatAgreement:
    def test_determinants_at_p1(self):
        for s in random_sets(83, 30):
            rows = cube.distance_rows(s.bits)
            exact = det_int([r[:] for r in rows])
            approx = float(np.linalg.det(np.array(rows, float)))
            assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_dinv_ones_at_p1(self):
        for s in random_sets(89, 30):
            if not cube.affinely_independent(s):
                continue
            d = np.array(cube.distance_rows(s.bits), float)
            one = np.ones(d.shape[0])
            approx = float(one @ np.linalg.solve(d, one))
            exact = float(identities.dinv_ones(s))
            assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def _outcome(fn, *args, **kwargs):
    """A report's fields and JSON bytes, or the class of the error raised."""
    try:
        out = fn(*args, **kwargs)
    except CubedistError as exc:
        return type(exc)
    if isinstance(out, negtype.NegTypeReport):
        fields = (out.wp, out.root_kind, out.bracket, out.residual, out.cap)
        return fields, json.dumps(out.to_json_dict(), sort_keys=True)
    return out


@st.composite
def _point_sets(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, min(9, 1 << n)))
    bits = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k, unique=True))
    return PointSet.from_bits(n, bits)


class TestBatchedScanAgainstOracle:
    """The batched scan gives exactly the scalar scan's answers."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        _point_sets(),
        st.sampled_from([2.0, 8.0, 16.0]),
        st.sampled_from([0.125, 0.25, 0.3]),
        st.sampled_from([1e-9, 1e-6]),
    )
    def test_random_sets(self, s, cap, grid, tol):
        got = _outcome(negtype.sanchez_wp, s, cap=cap, tol=tol, grid=grid)
        assert got == _outcome(sanchez_wp_oracle, s, cap=cap, tol=tol, grid=grid)

    def test_every_normalized_h3_subset(self):
        count = 0
        for m in range(1, 8):
            for tail in combinations(range(1, 8), m):
                s = PointSet.from_bits(3, (0,) + tail)
                assert _outcome(negtype.sanchez_wp, s) == _outcome(sanchez_wp_oracle, s)
                count += 1
        assert count == 127

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_point_sets(), st.sampled_from([1.5, 2.0, 3.0]))
    def test_transform_scaling(self, s, p):
        got = _outcome(negtype.transform_scaling_check, s, p)
        assert got == _outcome(transform_scaling_check_oracle, s, p)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_point_sets(), st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]))
    def test_strict_p_negative_type(self, s, p):
        got = _outcome(negtype.strict_p_negative_type, s, p)
        assert got == _outcome(strict_p_negative_type_oracle, s, p)

    def test_strict_p_negative_type_factorises_d_p_once(self, monkeypatch):
        calls = []
        real = np.linalg.slogdet

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "slogdet", counted)
        assert negtype.strict_p_negative_type(PATH3, 1.5)
        assert calls == [(1, 4, 4), (1, 3, 3)]

    def test_determinant_scan_reuses_the_bordered_factorisations(self, monkeypatch):
        # grid exponents that the bordered scan evaluates with ratios
        ps = [1.0 + 0.125 * k for k in range(1, 9)]
        d_float = np.array(H3_SET.d_rows, dtype=float)
        signals = negtype._PowerSignals(d_float)
        signals.bordered(ps)
        calls = count_calls(monkeypatch, np, "power")
        got = signals.det(ps)
        assert calls == {}  # no D_p raised again
        monkeypatch.undo()
        assert got == negtype._PowerSignals(d_float).det(ps)

    def test_signs_only_bordered_batch_skips_d_p(self, monkeypatch):
        # bisection midpoints: the walk reads only the bordered signs
        ps = [1.0625, 1.1875]
        d_float = np.array(H3_SET.d_rows, dtype=float)
        shapes = []
        real = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: shapes.append(a.shape) or real(a))
        signs = [s for s, _ in negtype._PowerSignals(d_float).bordered(ps, ratios=False)]
        assert shapes == [(2, 5, 5)]
        assert signs == [s for s, _ in negtype._PowerSignals(d_float).bordered(ps)]


def _crossing(root, sign=1):
    """Sign `sign` below root and -sign above it; the ratio is the log
    distance to the root."""

    def f(p):
        if p == root:
            return 0, -math.inf
        return (sign if p < root else -sign), math.log(abs(p - root))

    return f


def _band(a, b, before=1, after=1):
    """Zero-classified (ratio -50) on [a, b] with sign `before`; sign
    `before` below the band and `after` above it, ratio 0 there."""

    def f(p):
        if a <= p <= b:
            return before, -50.0
        return (before if p < a else after), 0.0

    return f


def _constant(sign=1):
    return lambda p: (sign, 0.0)


def _batched(f, seen):
    """A batch signal over f that, like the package's, leaves out the
    ratio of a nonzero sign when asked for signs only."""

    def signal(ps, ratios=True):
        seen.extend(ps)
        out = [f(p) for p in ps]
        return out if ratios else [(s, r if s == 0 else None) for s, r in out]

    return signal


def _scan(det_f, bord_f, lo=1.0, cap=16.0, grid=0.125, tol=1e-9):
    det_seen, bord_seen = [], []
    signals = SimpleNamespace(det=_batched(det_f, det_seen), bordered=_batched(bord_f, bord_seen))
    got = negtype._scan_for_roots(signals, lo, cap, grid, tol)
    assert got == earliest_root_oracle(det_f, bord_f, lo, cap, grid, tol)
    return got, det_seen


class TestEarlyStop:
    """`_scan_for_roots` with synthetic signals equals both scalar scans
    run to their ends followed by `min`."""

    def test_determinant_root_first(self):
        got, _ = _scan(_crossing(2.3), _crossing(5.1))
        assert got[1] == negtype.ROOT_DETERMINANT and abs(got[0] - 2.3) < 1e-8

    def test_bordered_root_first_stops_the_determinant_scan(self):
        got, det_seen = _scan(_crossing(9.7), _crossing(2.3, sign=-1))
        assert got[1] == negtype.ROOT_BORDERED and abs(got[0] - 2.3) < 1e-8
        assert max(det_seen) < 2.3 + negtype._GRID_CHUNK * 0.125

    def test_equal_roots_go_to_the_determinant(self):
        got, _ = _scan(_crossing(3.37), _crossing(3.37, sign=-1))
        assert got[1] == negtype.ROOT_DETERMINANT

    def test_roots_in_one_grid_cell(self):
        got, _ = _scan(_crossing(3.3701), _crossing(3.37))
        assert got[1] == negtype.ROOT_BORDERED
        got, _ = _scan(_crossing(3.37), _crossing(3.3701))
        assert got[1] == negtype.ROOT_DETERMINANT

    def test_bordered_root_first_stops_the_determinant_bisection(self):
        got, det_seen = _scan(_crossing(3.37), _crossing(3.26))
        assert got[1] == negtype.ROOT_BORDERED
        full = []
        negtype._first_root(_batched(_crossing(3.37), full), 1.0, 16.0, 0.125, 1e-9)
        off_grid = lambda ps: [p for p in ps if p % 0.125]
        assert 0 < len(off_grid(det_seen)) <= 2 ** negtype._BISECT_STEPS - 1 < len(off_grid(full))

    def test_zero_band_at_scan_start(self):
        got, _ = _scan(_crossing(4.0), _band(0.5, 1.3))
        assert got[1] == negtype.ROOT_BORDERED and got[2] == (1.0, 1.25)
        got, _ = _scan(_band(0.5, 1.3), _band(0.5, 1.3))
        assert got[1] == negtype.ROOT_DETERMINANT and got[0] == 1.0

    def test_zero_band_into_the_cap(self):
        got, _ = _scan(_band(6.1, 20.0), _crossing(7.0))
        assert got[1] == negtype.ROOT_DETERMINANT and got[2] == (6.125, 16.0)
        got, _ = _scan(_constant(-1), _band(6.1, 20.0))
        assert got[1] == negtype.ROOT_BORDERED and got[0] == 6.125

    def test_touch_zero_band_before_the_other_root(self):
        got, _ = _scan(_crossing(5.0), _band(2.2, 2.6))
        assert got[1] == negtype.ROOT_BORDERED and got[2] == (2.25, 2.5)

    def test_no_root_below_cap(self):
        got, det_seen = _scan(_constant(1), _constant(-1))
        assert got is None and max(det_seen) == 16.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_signals(self, data):
        def signal_fn():
            kind = data.draw(st.sampled_from(["crossing", "band", "constant"]))
            sign = data.draw(st.sampled_from([1, -1]))
            if kind == "crossing":
                return _crossing(data.draw(st.floats(0.5, 6.0)), sign)
            if kind == "band":
                a = data.draw(st.floats(0.5, 6.0))
                b = a + data.draw(st.floats(0.0, 2.0))
                return _band(a, b, sign, data.draw(st.sampled_from([1, -1])))
            return _constant(sign)

        cap = data.draw(st.sampled_from([2.0, 4.0, 5.3]))
        grid = data.draw(st.sampled_from([0.125, 0.25, 0.3]))
        tol = data.draw(st.sampled_from([1e-9, 1e-6]))
        _scan(signal_fn(), signal_fn(), cap=cap, grid=grid, tol=tol)
