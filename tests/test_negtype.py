import math
import random
from itertools import combinations

import numpy as np
import pytest

from cubedist import cube, identities, negtype
from cubedist.cube import PointSet
from cubedist.errors import CapExceededError, DomainError, NotNegativeTypeError
from cubedist.ratlinalg import det_int
from oracle import leibniz_det

PATH3 = PointSet.from_coords([(0, 0), (1, 0), (1, 1)])
FULL_H2 = PointSet.from_bits(2, [0, 1, 2, 3])
H3_SET = PointSet.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
TWO_POINTS = PointSet.from_coords([(0, 0, 0), (1, 1, 0)])


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
        assert np.array_equal(dp, np.array(cube.distance_rows(H3_SET.bits()), float))

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
            rows = cube.distance_rows(s.bits())
            exact = det_int([r[:] for r in rows])
            approx = float(np.linalg.det(np.array(rows, float)))
            assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_dinv_ones_at_p1(self):
        for s in random_sets(89, 30):
            if not cube.affinely_independent(s):
                continue
            d = np.array(cube.distance_rows(s.bits()), float)
            one = np.ones(d.shape[0])
            approx = float(one @ np.linalg.solve(d, one))
            exact = float(identities.dinv_ones(s))
            assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def test_linf_is_symbolically_infinite():
    assert math.isinf(negtype.linf_supremal_negative_type(PATH3))
