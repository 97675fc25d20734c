import functools
import multiprocessing
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cubedist
from cubedist import cube, identities, search
from cubedist.cube import PointSet
from cubedist.errors import BudgetExceededError, DomainError, InvariantError
from oracle import eval_tail_oracle, gram_push, record_pools, scan_oracle, scan_range_oracle

F = Fraction


class TestEnumerate:
    """The exhaustive enumeration's parameter domain."""

    @pytest.mark.parametrize("n,m", [(1, 1), (65, 1), (3, 0), (3, 8)])
    def test_out_of_range(self, n, m):
        with pytest.raises(DomainError):
            search.min_dinv_ones(n, m)


class TestExhaustive:
    def test_n3_m3(self):
        res = search.min_dinv_ones(3, 3)
        assert res.min_value == F(2, 3)
        assert res.sets_examined == 35
        assert res.violations == ()
        assert res.mode == "exhaustive"
        # witness value recomputed through the identity route
        assert identities.dinv_ones(res.witness) == F(2, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_m1_slice_antipodal_witness(self, n):
        res = search.min_dinv_ones(n, 1)
        assert res.min_value == F(2, n)
        assert res.witness.bits == (0, (1 << n) - 1)

    def test_no_independent_sets(self):
        res = search.min_dinv_ones(2, 3)
        assert res.independent_count == 0
        assert res.min_value is None and res.witness is None
        assert res.violations == ()

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            search.min_dinv_ones(5, 5, budget=1000)
        assert err.value.required == 169_911

    def test_more_points_than_dimensions_needs_no_budget(self, monkeypatch):
        """C(31, 20) = 84,672,315 sets, all dependent: answered under the
        default budget without walking."""
        monkeypatch.setattr(search, "_scan_range", None)
        res = search.min_dinv_ones(5, 20)
        assert (res.sets_examined, res.independent_count) == (comb(31, 20), 0)
        assert res.min_value is None and res.witness is None and res.violations == ()
        assert search.min_dinv_ones(5, 20, budget=1).to_json() == res.to_json()

    def test_m_equals_n_slice_value(self):
        res = search.min_dinv_ones(4, 4)
        assert res.min_value == F(1, 2)

    @pytest.mark.parametrize(
        "n,m,digits",
        [(5, 20, 8), (13, 4095, 2464), (14, 3000, 3386), (64, 65, 1162), (14, 4098, 4000), (14, 12285, 4000)],
    )
    def test_printable_counts_answered(self, n, m, digits):
        """Slices with m > n answer with their count up to MAX_COUNT_DIGITS
        digits, both sides of C(2^n - 1, m) = C(2^n - 1, 2^n - 1 - m)."""
        res = search.min_dinv_ones(n, m)
        assert res.sets_examined == comb((1 << n) - 1, m)
        assert f'"sets_examined": {res.sets_examined},' in res.to_json()
        assert len(str(res.sets_examined)) == digits

    @pytest.mark.parametrize("n,m", [(14, 4099), (14, 12284), (14, 8000)])
    def test_count_past_the_digit_limit_refused(self, n, m):
        """Counts of 4,001 digits, on both sides, and of 4,929 digits, past
        the 4,300 that Python prints, are refused."""
        with pytest.raises(DomainError, match="4000 digits"):
            search.min_dinv_ones(n, m)

    @pytest.mark.parametrize("n,m", [(22, 1 << 21), (64, 1 << 63)])
    def test_huge_count_refused_before_counting(self, monkeypatch, n, m):
        """comb(2^22 - 1, 2^21) alone runs for minutes: the bound
        (N / k)^k <= C(N, k) refuses these without it."""

        def refuse(*args):
            raise AssertionError("count computed")

        monkeypatch.setattr(search, "comb", refuse)
        with pytest.raises(DomainError):
            search.min_dinv_ones(n, m)

    def test_minimum_bounded_by_2_over_n(self):
        for n in (2, 3, 4):
            for m in range(1, min(6, (1 << n))):
                res = search.min_dinv_ones(n, m)
                if res.min_value is not None:
                    assert res.min_value >= F(2, n)
                assert res.violations == ()


def _first_element_tasks(n, m):
    """The pool's tasks for (n, m): one range (x, x + 1) per first element."""
    return [(n, m, x, x + 1) for x in range(1, (1 << n) - m + 1)]


def _pooled(monkeypatch, n, m, workers):
    """min_dinv_ones(n, m, workers) on a host faked with 8 CPUs, the pool
    mapped in-process; checks that a pool starts exactly when more than
    one process is due, with min(workers, first elements) processes and
    one task per first element, in order. The m = 1 slice, whose
    first elements are single sets, never starts one."""
    monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
    pools = record_pools(monkeypatch, search, inline=True)
    res = search.min_dinv_ones(n, m, workers=workers)
    tasks = _first_element_tasks(n, m)
    processes = min(workers, len(tasks))
    assert pools == ([] if m > n or m == 1 or processes == 1 else [(processes, tasks, 1)])
    return res


def _parts(tally):
    """A tally's (independent, best, violations), its best as (value,
    tail) as the oracles give it."""
    best = tally.best
    return tally.independent, best and (F(best[0], best[1]), best[2]), tally.violations


def _projected(res):
    """A SearchResult as the oracles' (examined, independent, best,
    violations), with each set given by its tail."""
    best = None if res.witness is None else (res.min_value, res.witness.bits[1:])
    violations = [(v.points.bits[1:], v.value) for v in res.violations]
    return res.sets_examined, res.independent_count, best, violations


def _range_size(n, m, lo, hi):
    """How many m-subsets of {1, ..., 2^n - 1} have their first element
    in [lo, hi)."""
    return sum(comb((1 << n) - 1 - x, m - 1) for x in range(lo, hi))


def _whole(n, m):
    """The (n, m) slice as one range of first elements."""
    return (n, m, 1, (1 << n) - m + 1)


def _scan_oracle(n, m):
    """`scan_oracle`'s tuple, after checking that the oracle visited all
    C(2^n - 1, m) subsets."""
    got = scan_oracle(n, m)
    assert got[0] == comb((1 << n) - 1, m) == _range_size(*_whole(n, m))
    return got


class TestWorkers:
    @pytest.mark.parametrize("n,m", [(4, 3), (5, 2), (5, 5), (6, 3)])
    def test_worker_counts_agree_bytewise(self, monkeypatch, n, m):
        # a host with four CPUs is faked so that four processes really
        # share the first elements
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        pools = record_pools(monkeypatch, search)
        r1 = search.min_dinv_ones(n, m, workers=1)
        r4 = search.min_dinv_ones(n, m, workers=4)
        assert pools == [(4, _first_element_tasks(n, m), 1)]
        assert r1.to_json() == r4.to_json()

    def test_more_workers_than_sets(self):
        r = search.min_dinv_ones(2, 1, workers=4)
        assert r.sets_examined == 3

    def test_uneven_subtrees_agree_bytewise(self, monkeypatch):
        # (4, 4): first-element subtrees hold 364, 286, 220, ... of 1365
        # sets, so the pool's tasks are uneven. A host with four CPUs is
        # faked so that the pool really starts 2, 3 and 4 processes.
        r1 = search.min_dinv_ones(4, 4, workers=1)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        for w in (2, 3, 4):
            pools = record_pools(monkeypatch, search)
            assert search.min_dinv_ones(4, 4, workers=w).to_json() == r1.to_json()
            assert pools == [(w, _first_element_tasks(4, 4), 1)]

    @pytest.mark.parametrize("n,m", [(4, 5), (3, 5), (5, 2), (4, 1), (3, 7), (2, 2)])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    def test_subtree_groups_merge_to_serial(self, monkeypatch, n, m, workers):
        """With `workers` processes the one-task-per-first-element
        tallies, merged in task order, equal the oracle's scan."""
        assert _projected(_pooled(monkeypatch, n, m, workers)) == _scan_oracle(n, m)

    def test_pool_size_clamps(self, monkeypatch):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        assert search._pool_size(1, 1000) == 1
        assert search._pool_size(4, 1000) == 2
        assert search._pool_size(10**6, 10**6) == 2
        assert search._pool_size(4, 1) == 1
        assert search._pool_size(0, 1000) == 1
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._pool_size(8, 1000) == 1
        monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
        assert search._pool_size(8, 1000) == 8
        assert search._pool_size(8, 3) == 3

    def test_merge_tie_breaks_lexicographically(self):
        def tally(tail, pivot, corner):
            # the tally of one independent set of value -2 pivot / corner
            t = search._Tally(4, 2)
            t.add(tail, pivot, corner)
            return t

        def merged(a, b):
            a.merge(b)
            return _parts(a)

        half_13, half_14 = ((1, 3), 3, -12), ((1, 4), 3, -12)
        for x, y in [(half_14, half_13), (half_13, half_14)]:
            assert merged(tally(*x), tally(*y)) == (2, (F(1, 2), (1, 3)), [])
        # the smaller value wins over the lex-smaller tail
        two_thirds_78, one_13 = ((7, 8), 1, -3), ((1, 3), 1, -2)
        for x, y in [(two_thirds_78, one_13), (one_13, two_thirds_78)]:
            assert merged(tally(*x), tally(*y))[1] == (F(2, 3), (7, 8))
        # an empty tally is the identity, on either side
        assert merged(tally(*half_14), search._Tally(4, 2))[1] == (F(1, 2), (1, 4))
        assert merged(search._Tally(4, 2), tally(*half_14))[1] == (F(1, 2), (1, 4))


class TestRandomProbe:
    def test_zero_trials(self):
        res = search.random_probe(4, 2, 0, seed=9)
        assert res.sets_examined == 0
        assert res.min_value is None and res.witness is None
        assert res.seed == 9

    def test_deterministic(self):
        a = search.random_probe(6, 4, 300, seed=1234)
        b = search.random_probe(6, 4, 300, seed=1234)
        assert a.to_json() == b.to_json()

    def test_trials_all_counted(self):
        res = search.random_probe(6, 4, 300, seed=2)
        assert res.sets_examined == 300
        assert res.independent_count <= 300

    @pytest.mark.parametrize("trials", [0, 1, 37])
    @pytest.mark.parametrize("n,m", [(4, 3), (3, 1), (3, 5)])
    def test_examined_is_trials(self, n, m, trials):
        for seed in range(3):
            assert search.random_probe(n, m, trials, seed).sets_examined == trials

    def test_probe_minimum_dominates_exhaustive(self):
        probe = search.random_probe(4, 3, 500, seed=77)
        full = search.min_dinv_ones(4, 3)
        assert probe.min_value >= full.min_value

    def test_negative_trials_rejected(self):
        with pytest.raises(DomainError):
            search.random_probe(4, 2, -1, seed=0)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            search.random_probe(4, 2, 11, seed=0, budget=10)
        assert err.value.required == 11
        assert search.random_probe(4, 2, 10, seed=0, budget=10).sets_examined == 10

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 5), (4, 7), (5, 9)])
    def test_more_points_than_coordinates(self, n, m):
        """The answer returned without drawing: every drawn tail of more
        than n points is dependent, as the kernel confirms."""
        for seed in range(3):
            res = search.random_probe(n, m, 50, seed=seed)
            assert (res.sets_examined, res.independent_count) == (50, 0)
            assert res.witness is None and res.min_value is None and res.violations == ()
            rng = random.Random(seed)
            assert all(cube.gram_eliminate(cube.random_tail(rng, n, m))[-1] for _ in range(50))

    def test_huge_m_draws_nothing(self, monkeypatch):
        # drawing 10^9 patterns would take minutes and gigabytes: fail at once instead
        monkeypatch.setattr(cube, "random_tail", None)
        res = search.random_probe(40, 10**9, 5, seed=1)
        assert (res.sets_examined, res.independent_count) == (5, 0)

    def test_tie_drawn_later_with_lex_smaller_tail_wins(self, monkeypatch):
        """Draws come out of lex order, so a value equal to the best must
        still reach the tie-break: (1, 2, 12) replaces (3, 4, 8)."""
        draws = iter([(3, 4, 8), (1, 2, 12)])
        monkeypatch.setattr(cube, "random_tail", lambda rng, n, m: next(draws))
        assert eval_tail_oracle((3, 4, 8), 4) == eval_tail_oracle((1, 2, 12), 4) == F(1, 2)
        res = search.random_probe(4, 3, 2, seed=0)
        assert (res.independent_count, res.min_value) == (2, F(1, 2))
        assert res.witness.bits == (0, 1, 2, 12)

    def test_json_has_seed_only_in_random_mode(self):
        r = search.min_dinv_ones(3, 2)
        assert "seed" not in r.to_json_dict()
        p = search.random_probe(3, 2, 5, seed=3)
        assert p.to_json_dict()["seed"] == 3


class TestResultShape:
    def test_json_fields(self):
        res = search.min_dinv_ones(3, 3)
        js = res.to_json_dict()
        assert js["n"] == 3 and js["m"] == 3
        assert js["min_value"] == "2/3"
        assert js["violations"] == []
        assert isinstance(js["witness"], list)

    def test_witness_is_point_set(self):
        res = search.min_dinv_ones(3, 2)
        assert isinstance(res.witness, PointSet)
        assert res.witness.normalized


@st.composite
def _random_tails(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, min(n + 2, (1 << n) - 1)))
    tail = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=m, max_size=m))
    return n, tuple(sorted(tail))


@st.composite
def _dependent_tails(draw):
    """Tails holding x, y and x | y for disjoint x, y: always linearly
    dependent, so the kernel's zero-pivot exit is exercised."""
    n = draw(st.integers(2, 8))
    x = draw(st.integers(1, (1 << n) - 1))
    y = draw(st.integers(1, (1 << n) - 1)) & ~x
    assume(y)
    others = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=n - 1))
    return n, tuple(sorted(others | {x, y, x | y}))


def _serial_scan(n, m):
    return _parts(search._scan_range(_whole(n, m)))


def _kernel_value(tail):
    _, _, pivots, _, corner, dependent = cube.gram_eliminate(tail)
    return None if dependent is not None else Fraction(-2 * pivots[-1], corner)


class TestKernelAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_random_tails())
    def test_random_tails(self, case):
        n, tail = case
        assert _kernel_value(tail) == eval_tail_oracle(tail, n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_dependent_tails())
    def test_dependent_tails(self, case):
        n, tail = case
        assert eval_tail_oracle(tail, n) is None
        assert _kernel_value(tail) is None

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in (2, 3, 4) for m in range(1, 1 << n)]
    )
    def test_full_scan_matches_oracle(self, n, m):
        assert _serial_scan(n, m) == _scan_oracle(n, m)[1:]

    @pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 4, 5) for m in range(1, 1 << n)])
    def test_pruned_slices_count_every_subset(self, monkeypatch, n, m):
        """Every slice reports its size as examined, serial and with one
        task per first element. Only slices with m <= 2 have no dependent
        set: distinct nonzero patterns are never proportional."""
        for workers in (1, 2):
            res = _pooled(monkeypatch, n, m, workers)
            assert res.sets_examined == comb((1 << n) - 1, m)
            assert (res.independent_count < res.sets_examined) == (m > 2)


_WALK_SLICES = [(5, m) for m in range(1, 6)] + [(6, 3)]

_LATE_RANGES = [(6, 6, 40, 44), (6, 5, 45, 59)]


def _task_id(task):
    return "-".join(map(str, task))


@functools.lru_cache(maxsize=None)
def _oracle_range(task):
    """The oracle walk's (independent, best, violations) of the range,
    after checking that it visited each of the range's subsets."""
    examined, tally = scan_range_oracle(task)
    assert examined == _range_size(*task)
    return _parts(tally)


def _floor_at(monkeypatch, floor_n):
    """Make the walk's tallies take 2/floor_n as their floor: a value
    below it is a violation."""

    class Floor(search._Tally):
        def __init__(self, n, m):
            super().__init__(n, m)
            self.n = floor_n

    monkeypatch.setattr(search, "_Tally", Floor)


class TestWalkAgainstOracle:
    """The pair-entry walk against the oracle walk, which pushes every
    node through `gram_push` against its whole prefix."""

    @pytest.mark.parametrize("n,m", _WALK_SLICES)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_ranges_merge_in_order(self, monkeypatch, n, m, workers):
        """One process walks the serial range; more take one task per
        first element, merged in task order."""
        got = _projected(_pooled(monkeypatch, n, m, workers))
        assert got == (comb((1 << n) - 1, m), *_oracle_range(_whole(n, m)))

    @pytest.mark.parametrize("n,m", [(4, 4), (5, 3), (4, 5)])
    def test_candidate_rows_equal_gram_push(self, monkeypatch, n, m):
        """At every node of the walk the rows are, in order, `gram_push`'s
        (pivot, border) of each later point whose pivot is nonzero; each
        pair entry of rows i < j is the history entry at index k of y_j
        pushed after the k-point prefix + y_i; and the node's last pivot
        and corner are the prefix's. (4, 5) has two levels of pair entries
        built by a step below the root's popcounts."""
        nodes = []
        real = search._descend

        def spy(rows, pairs, children, prev, corner, need, tail, tally):
            nodes.append((tail, prev, corner, list(rows), [list(row) for row in pairs]))
            real(rows, pairs, children, prev, corner, need, tail, tally)

        monkeypatch.setattr(search, "_descend", spy)
        _serial_scan(n, m)
        assert {len(node[0]) for node in nodes} == set(range(m - 2))
        top = (1 << n) - 1
        for tail, prev, corner, rows, pairs in nodes:
            k = len(tail)
            points, hists, pivs, borders, c, dependent = cube.gram_eliminate(tail)
            assert dependent is None and (pivs[-1] if pivs else 1, c) == (prev, corner)
            pushed = []
            for y in range(tail[-1] + 1 if tail else 1, top + 1):
                hist, piv, bord, cy = gram_push(y, points, hists, pivs, borders, c)
                if piv:
                    pushed.append((y, hist, piv, bord, cy))
            assert rows == [(y, piv, bord) for y, _, piv, bord, _ in pushed]
            expect = []
            for i, (y, hist, piv, bord, cy) in enumerate(pushed):
                prefix = ([*points, y], [*hists, hist], [*pivs, piv], [*borders, bord], cy)
                expect.append([gram_push(z, *prefix)[0][k] for z, *_ in pushed[i + 1 :]])
            assert pairs == expect

    @pytest.mark.parametrize(
        "task", [(4, 2, 1, 14), (4, 3, 1, 13), (5, 4, 1, 28), (6, 5, 45, 59)], ids=_task_id
    )
    def test_violations_recorded_as_the_tally_adds_them(self, monkeypatch, task):
        """No set undercuts 2/n, so the tally is given the floor 2/1: every
        value below 2 then counts as a violation, and the walk must record
        them in lex order as `_Tally.add` does for the oracle walk."""
        _floor_at(monkeypatch, 1)
        examined, want = scan_range_oracle(task)
        assert examined == _range_size(*task)
        got = _parts(search._scan_range(task))
        assert len(got[2]) > got[0] // 2
        assert got == _parts(want)

    @pytest.mark.parametrize("n,m,floor_n", [(4, 2, 3), (4, 3, 3), (5, 3, 4), (5, 4, 4)])
    def test_violations_between_best_and_floor(self, monkeypatch, n, m, floor_n):
        """With the floor raised to 2/floor_n, above the slice's minimum,
        the bar is the floor: values between the best and the floor are
        violations, met after the best as well, and must reach
        `_Tally.leaf`. The whole slice as one range and as merged
        per-element tallies must equal a per-set `Fraction` loop."""
        _floor_at(monkeypatch, floor_n)
        _, independent, best, violations = scan_oracle(n, m, floor=F(2, floor_n))
        assert any(val > best[0] for _, val in violations)
        whole = search._scan_range(_whole(n, m))
        tallies = [search._scan_range((n, m, x, x + 1)) for x in range(1, (1 << n) - m + 1)]
        for later in tallies[1:]:
            tallies[0].merge(later)
        for tally in (whole, tallies[0]):
            assert _parts(tally) == (independent, best, violations)

    @pytest.mark.parametrize("task", _LATE_RANGES, ids=_task_id)
    def test_late_ranges_equal_oracle(self, task):
        """First elements late in (6, 6) and (6, 5): with m = 6 the walk
        builds pair entries by a step at three levels below the root."""
        assert _parts(search._scan_range(task)) == _oracle_range(task)

    @pytest.mark.parametrize("task", _LATE_RANGES, ids=_task_id)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_late_ranges_merge_over_workers(self, task, workers):
        """The range as the pool walks it: one task per first element on
        `workers` processes, the tallies merged in task order."""
        n, m, lo, hi = task
        tasks = [(n, m, x, x + 1) for x in range(lo, hi)]
        with multiprocessing.Pool(workers) as pool:
            tallies = pool.map(search._scan_range, tasks, chunksize=1)
        for later in tallies[1:]:
            tallies[0].merge(later)
        assert _parts(tallies[0]) == _oracle_range(task)


def _no_pair_entries(monkeypatch):
    """Make building any pair entry, the root's or a child's, raise."""

    def refuse(*args):
        raise AssertionError("pair entries built")

    monkeypatch.setattr(search, "_root_pairs", refuse)
    monkeypatch.setattr(search, "_descend", refuse)


class TestShortSlicesBuildNoPairEntries:
    """Slices with m <= 2 read popcounts: a pair table for (12, 2) would
    hold C(4095, 2) = 8,382,465 entries."""

    def test_n12(self, monkeypatch):
        _no_pair_entries(monkeypatch)
        for m in (1, 2):
            res = search.min_dinv_ones(12, m)
            assert (res.independent_count, res.min_value) == (comb(4095, m), F(1, 6))

    def test_pooled(self, monkeypatch):
        _no_pair_entries(monkeypatch)
        assert _projected(_pooled(monkeypatch, 5, 2, 4)) == _scan_oracle(5, 2)

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 2)])
    def test_serial_equals_oracle(self, monkeypatch, n, m):
        _no_pair_entries(monkeypatch)
        assert _serial_scan(n, m) == _scan_oracle(n, m)[1:]


class TestPointSlice:
    """The m = 1 slice walks the points 1..2^n - 1 themselves, on one
    process: no root rows, no pool, and memory that does not grow with
    the 2^n - 1 sets."""

    @pytest.mark.parametrize("n", [12, 20])
    def test_builds_no_root_rows(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("root rows built")

        monkeypatch.setattr(search, "_root_rows", refuse)
        res = search.min_dinv_ones(n, 1)
        count = (1 << n) - 1
        assert (res.sets_examined, res.independent_count) == (count, count)
        assert (res.min_value, res.witness.bits) == (F(2, n), (0, count))

    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("cpus", [2, 4])
    def test_starts_no_pool(self, monkeypatch, n, cpus):
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        pools = record_pools(monkeypatch, search, inline=True)
        serial = search.min_dinv_ones(n, 1, workers=1).to_json()
        for workers in (2, cpus):
            assert search.min_dinv_ones(n, 1, workers=workers).to_json() == serial
        assert pools == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_memory_does_not_grow_with_the_slice(self):
        """(20, 1) has 1,048,575 sets; a list of one row per point took
        its peak resident size past 120 MB. The peak is the fresh
        interpreter's own VmHWM: its ru_maxrss would also count the
        process that started it, which Linux carries across exec."""
        script = (
            "from cubedist import search\n"
            "res = search.min_dinv_ones(20, 1)\n"
            "assert res.independent_count == (1 << 20) - 1\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cubedist.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) < 64 * 1024  # kB


def _corner_off_by_one(monkeypatch):
    """Perturb the Gram kernel that random probing reads."""
    real = search.gram_eliminate

    def wrong(tail):
        points, hists, pivots, borders, corner, dependent = real(tail)
        return points, hists, pivots, borders, corner - 1, dependent

    monkeypatch.setattr(search, "gram_eliminate", wrong)


def _root_border_off_by_one(monkeypatch):
    """Perturb the exhaustive walk at its seed: the border of every row of
    the empty prefix, from which all later rows and corners follow."""
    real = search._root_rows

    def wrong(lo, top):
        return [(y, piv, bord + 1) for y, piv, bord in real(lo, top)]

    monkeypatch.setattr(search, "_root_rows", wrong)


class TestFullDimensionalInvariant:
    @pytest.mark.parametrize("n,first", [(2, (1, 3)), (3, (1, 2, 7)), (4, (1, 2, 4, 15))])
    def test_late_fault_raises_on_its_first_set(self, monkeypatch, n, first):
        """Only the last point's root border is off by one, so the sets
        before the first that holds it are right, and the bar has fallen
        to 2/n when the fault comes: the walk must still raise, naming
        that first perturbed set."""
        real = search._root_rows

        def wrong(lo, top):
            return [(y, piv, bord - (y == top)) for y, piv, bord in real(lo, top)]

        monkeypatch.setattr(search, "_root_rows", wrong)
        with pytest.raises(InvariantError, match=re.escape(f"set {first} gave")):
            search.min_dinv_ones(n, n)

    def test_exhaustive_raises(self, monkeypatch):
        _root_border_off_by_one(monkeypatch)
        with pytest.raises(InvariantError):
            search.min_dinv_ones(3, 3)

    def test_exhaustive_raises_on_pairs(self, monkeypatch):
        """(2, 2) is the one full-dimensional slice of pairs, which the
        walk reads from popcounts with no pair entries."""
        _root_border_off_by_one(monkeypatch)
        with pytest.raises(InvariantError):
            search.min_dinv_ones(2, 2)

    def test_random_raises(self, monkeypatch):
        _corner_off_by_one(monkeypatch)
        with pytest.raises(InvariantError):
            search.random_probe(3, 3, 50, seed=4)
