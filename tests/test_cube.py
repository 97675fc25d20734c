import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedist import cube, identities, negtype
from cubedist.cube import (
    PointSet,
    affinely_independent,
    normalize,
    parse_point_set,
)
from cubedist.errors import CubedistError, DegenerateMetricError, DimensionError, ParseError
from cubedist.ratlinalg import det_int
from oracle import (
    coords,
    count_calls,
    distance_matrix_from_coords,
    format_point_set,
    gram_eliminate_oracle,
    gram_of_differences,
    leibniz_det,
)


def ps(*rows):
    return PointSet.from_coords(rows)


def random_point_set(rng, n, size):
    bits = rng.sample(range(1 << n), size)
    return PointSet.from_bits(n, bits)


class TestHammingPoint:
    """A point is its bit pattern; PointSet validates every pattern."""

    def test_string_round_trip(self):
        s = PointSet.from_coords([(1, 0, 1, 1), (0, 0, 0, 0)])
        assert s.bits == (0b1101, 0)
        assert s.to_strings() == ["1011", "0000"]
        assert coords(s)[0] == (1, 0, 1, 1)
        assert parse_point_set("4 2\n1011\n0000\n") == s

    def test_dimension_floor_and_cap(self):
        with pytest.raises(DimensionError):
            PointSet.from_bits(1, [0, 1])
        with pytest.raises(DimensionError):
            PointSet.from_bits(65, [0, 1])
        PointSet.from_bits(64, [0, (1 << 64) - 1])  # max size accepted

    def test_bits_must_fit(self):
        with pytest.raises(DimensionError):
            PointSet.from_bits(2, [0, 4])
        with pytest.raises(DimensionError):
            PointSet.from_bits(2, [-1, 0])

    def test_bad_coords(self):
        with pytest.raises(ValueError):
            PointSet.from_coords([(0, 0, 0), (0, 2, 1)])


class TestDistance:
    """Hamming distances are popcounts of XORs of the patterns."""

    def test_examples(self):
        s = PointSet.from_coords([(1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 0, 0)])
        d = cube.distance_rows(s.bits)
        assert d[0][1] == 2
        assert d[2][2] == 0
        assert d[2][3] == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PointSet.from_coords([(0, 1), (0, 1, 1)])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_symmetric_and_zero_iff_equal(self, a, b):
        d = cube.distance_rows([a, b])
        assert d[0][1] == d[1][0]
        assert (d[0][1] == 0) == (a == b)


class TestPointSet:
    def test_rejects_duplicates(self):
        with pytest.raises(DegenerateMetricError):
            ps((1, 0), (0, 1), (1, 0))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            PointSet.from_bits(2, [0])
        with pytest.raises(ValueError):
            PointSet.from_coords([])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            PointSet(2, (1, 0b101))
        with pytest.raises(DimensionError):
            PointSet.from_coords([(1, 0), (1, 0, 1)])

    def test_m_and_normalized_flags(self):
        s = ps((0, 0), (1, 1))
        assert s.m == 1 and s.normalized
        assert not ps((1, 0), (0, 1)).normalized


class TestNormalize:
    def test_simple_xor(self):
        s = normalize(ps((1, 1, 0), (1, 0, 1)))
        assert s.to_strings() == ["000", "011"]

    def test_already_normalized_unchanged(self):
        s = ps((0, 0, 0), (0, 1, 1))
        assert normalize(s) is s

    def test_distances_preserved(self):
        s = ps((1, 0, 0), (0, 1, 0), (1, 1, 1))
        sn = normalize(s)
        assert sn.to_strings() == ["000", "110", "011"]
        before = distance_matrix_from_coords(coords(s))
        after = distance_matrix_from_coords(coords(sn))
        assert before == after

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sets(st.integers(0, 31), min_size=2, max_size=8))
    def test_normalize_is_isometry(self, bits):
        s = PointSet.from_bits(5, sorted(bits))
        sn = normalize(s)
        assert sn.normalized
        assert cube.distance_rows(s.bits) == cube.distance_rows(sn.bits)


def derive(s):
    """G and u of the normalized tail, and D, from the integer row
    builders; D of the normalized set equals the input's."""
    bits = normalize(s).bits
    g, u = cube.gram_rows(bits[1:])
    return g, u, cube.distance_rows(bits)


class TestDerive:
    def test_first_example(self):
        g, u, d = derive(ps((0, 0, 0), (1, 1, 1), (1, 1, 0)))
        assert g == ((3, 2), (2, 2))
        assert u == (3, 2)
        assert d == ((0, 3, 2), (3, 0, 1), (2, 1, 0))

    def test_second_example(self):
        g, u, d = derive(ps((0, 0, 0), (1, 0, 1), (1, 1, 0)))
        assert g == ((2, 1), (1, 2))
        assert u == (2, 2)
        assert d == ((0, 2, 2), (2, 0, 2), (2, 2, 0))

    def test_minimal_pair(self):
        g, u, d = derive(ps((0, 0), (1, 0)))
        assert g == ((1,),)
        assert u == (1,)
        assert d == ((0, 1), (1, 0))

    def test_matches_bruteforce_distances(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(2, 6)
            s = random_point_set(rng, n, rng.randint(2, min(8, 1 << n)))
            _, _, d = derive(s)
            assert d == tuple(map(tuple, distance_matrix_from_coords(coords(s))))

    def test_polarization_identity(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(2, 6)
            s = random_point_set(rng, n, rng.randint(2, min(9, 1 << n)))
            g, u, d = derive(s)
            m = s.m
            for i in range(m):
                for j in range(m):
                    assert d[i + 1][j + 1] == u[i] + u[j] - 2 * g[i][j]

    def test_gram_matches_real_differences(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 6)
            s = random_point_set(rng, n, rng.randint(2, min(8, 1 << n)))
            g, _, _ = derive(s)
            assert g == tuple(map(tuple, gram_of_differences(coords(s))))


def _every_public_call(s):
    """Run every public identities and negtype function on s, keeping
    going past the errors they raise by design."""
    calls = [
        identities.det_distance_matrix, identities.det_via_bordered_gram,
        identities.det_via_gram_quad, identities.gram_solve, identities.gram_quad,
        identities.kernel_quad, identities.kernel_witness, identities.bordered_distance_det,
        identities.dinv_ones, identities.full_report,
        lambda s: negtype.dp_matrix(s, 1.5), lambda s: negtype.is_p_negative_type(s, 1.5),
        lambda s: negtype.strict_p_negative_type(s, 1.0),
        lambda s: negtype.strict_p_negative_type(s, 1.5),
        negtype.sanchez_wp, negtype.murugan_classify,
        lambda s: negtype.transform_scaling_check(s, 2.0),
    ]
    for call in calls:
        try:
            call(s)
        except CubedistError:
            pass


@st.composite
def _point_sets(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, min(9, 1 << n)))
    bits = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k, unique=True))
    return PointSet.from_bits(n, bits)


class TestCachedMatrices:
    """A set builds its distance rows, Gram rows and Gram kernel once,
    and no caller can change them afterwards."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_point_sets())
    def test_caches_survive_every_public_call(self, s):
        sn = normalize(s)
        for t in (s, sn):
            _every_public_call(t)
        tail = tuple(b ^ s.bits[0] for b in s.bits[1:])
        g, u = cube.gram_rows(tail)
        want = {
            "d_rows": tuple(map(tuple, cube.distance_rows(s.bits))),
            "gram": (tuple(map(tuple, g)), tuple(u)),
            "kernel": cube.gram_eliminate(tail),
        }
        # every call takes any set, so both have filled all three
        for t in (s, sn):
            assert set(vars(t)) == set(want) | {"n", "bits"}
            for name, value in want.items():
                assert vars(t)[name] == value

    def test_equal_sets_do_not_share_caches(self):
        a = PointSet.from_bits(3, (0, 1, 2, 7))
        b = PointSet.from_bits(3, (0, 1, 2, 7))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        identities.det_distance_matrix(a)
        identities.kernel_quad(a)
        assert {"d_rows", "kernel"} <= set(vars(a))
        assert set(vars(b)) == {"n", "bits"}
        # the caches stay out of equality, hash and repr
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.d_rows == b.d_rows and a.d_rows is not b.d_rows

    def test_cached_rows_refuse_an_elimination_in_place(self):
        # the eliminations read the cached rows without writing to them
        s = PointSet.from_bits(3, (0, 1, 2, 7))
        assert det_int(s.d_rows) == det_int(list(s.d_rows)) == -12
        assert det_int(s.gram[0]) == leibniz_det(s.gram[0]) == 1
        assert s.d_rows == cube.distance_rows(s.bits)
        assert s.gram == cube.gram_rows(s.bits[1:])
        assert identities.det_distance_matrix(s) == -12


class TestGramEliminate:
    """The Gram kernel against a loop of one-point `gram_push` steps:
    the same prefix state, corner and dependent point with its history."""

    def test_every_h4_tail(self):
        for m in range(1, 16):
            for tail in combinations(range(1, 16), m):
                assert cube.gram_eliminate(tail) == gram_eliminate_oracle(tail)

    @pytest.mark.parametrize("n,seed", [(6, 0), (8, 1)])
    def test_seeded_tails_in_any_order(self, n, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            tail = list(cube.random_tail(rng, n, rng.randrange(1, n + 3)))
            rng.shuffle(tail)
            assert cube.gram_eliminate(tail) == gram_eliminate_oracle(tail)


class TestIndependence:
    def test_examples(self):
        assert affinely_independent(ps((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)))
        full_h2 = ps((0, 0), (1, 0), (0, 1), (1, 1))
        assert not affinely_independent(full_h2)

    def test_more_points_than_dimension(self):
        s = PointSet.from_bits(2, [0, 1, 2, 3])
        assert not affinely_independent(s)

    @pytest.mark.parametrize("n", [2, 3])
    def test_more_tail_points_than_dimension_skip_the_rank_test(self, monkeypatch, n):
        calls = count_calls(monkeypatch, cube, "rank_of_bits")
        tails = [
            tail for m in range(n + 1, 1 << n) for tail in combinations(range(1, 1 << n), m)
        ]
        assert tails
        for tail in tails:
            assert not affinely_independent(PointSet.from_bits(n, (0, *tail)))
        assert calls["rank_of_bits"] == 0

    def test_requires_normalized(self):
        # The normalized-set precondition is gone: a set with x_0 != 0 is read
        # through its translated tail and answers as its normalization does.
        cases = [
            (ps((1, 0), (0, 1)), True),
            (ps((1, 0), (0, 1), (1, 1)), True),
            (ps((1, 1), (0, 1), (1, 0), (0, 0)), False),
        ]
        for s, want in cases:
            assert affinely_independent(s) is want
            assert affinely_independent(normalize(s)) is want

    def test_affine_examples(self):
        assert affinely_independent(ps((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 0)))
        assert affinely_independent(ps((1, 1, 0), (0, 1, 1)))

    def test_gf2_dependent_rationally_independent(self):
        # (1,1,0), (0,1,1), (1,0,1) sum to zero mod 2 yet have rank 3 over Q
        s = ps((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert affinely_independent(s)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sets(st.integers(0, 15), min_size=2, max_size=6), st.integers(0, 15), st.randoms())
    def test_affine_invariance(self, bits, shift, pyrand):
        base = sorted(bits)
        s = PointSet.from_bits(4, base)
        value = affinely_independent(s)
        shifted = PointSet.from_bits(4, [b ^ shift for b in base])
        assert affinely_independent(shifted) == value
        shuffled = list(base)
        pyrand.shuffle(shuffled)
        assert affinely_independent(PointSet.from_bits(4, shuffled)) == value


class TestParsing:
    def test_round_trip(self):
        s = ps((1, 0, 1), (0, 1, 1), (0, 0, 0))
        assert parse_point_set(format_point_set(s)) == s

    def test_header_errors(self):
        with pytest.raises(ParseError):
            parse_point_set("")
        with pytest.raises(ParseError):
            parse_point_set("3\n101\n")
        with pytest.raises(ParseError):
            parse_point_set("x 2\n101\n011\n")
        with pytest.raises(ParseError):
            parse_point_set("1 2\n1\n0\n")

    def test_wrong_length_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_point_set("3 2\n101\n01\n")
        assert "line 3" in str(err.value)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_point_set("3 2\n102\n011\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_point_set("3 3\n101\n011\n")

    def test_duplicate_is_degenerate(self):
        with pytest.raises(DegenerateMetricError):
            parse_point_set("3 2\n101\n101\n")

    def test_too_few_points_rejected(self):
        with pytest.raises(ParseError):
            parse_point_set("3 1\n101\n")
