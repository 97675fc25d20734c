"""The integer-only per-tree check against the check it replaced.

`oracle.check_tree_oracle` is the earlier `verify.check_tree`: one BFS per
vertex, k^2 row-by-column sums and a `Fraction` inverse. Both routes must
print the same report on every small labeled tree, and both must reject
the same faults injected into the closed-form inverse. The trusted Prufer
decode must build the same tree as full validation of a naive decode, and
the single BFS the same rows and cube images as the separate traversals
it replaced.
"""

import random
from itertools import product
from operator import mul

import pytest

from cubedist import trees, verify
from cubedist.errors import InvalidTreeError
from oracle import (
    check_tree_oracle,
    count_calls,
    embed_bits_oracle,
    prufer_edges_oracle,
    tree_distance_rows_bfs,
)

PRUFER8_SEED = 8
PRUFER8_COUNT = 2000


def _prufer8_codes():
    rng = random.Random(PRUFER8_SEED)
    return [tuple(rng.randrange(8) for _ in range(6)) for _ in range(PRUFER8_COUNT)]


def _both_routes(tree_list, deep):
    new, old = verify.SweepReport("trees"), verify.SweepReport("trees")
    for t in tree_list:
        verify.check_tree(t, new, deep=deep)
        check_tree_oracle(t, old, deep=deep)
    return new, old


def _failed(report):
    return {name for name, c in report.counters.items() if c.failed}


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_distance_rows_match_bfs_oracle(k):
    for t in trees.enumerate_labeled_trees(k):
        assert trees.tree_distance_rows(t) == tree_distance_rows_bfs(t), t.edges


class TestTrustedDecode:
    """`prufer_to_tree` skips validation; the tree it builds must be the
    one full validation builds from a naive decode of the same code."""

    @staticmethod
    def _check(seq, k):
        t = trees.prufer_to_tree(seq, k)
        want = trees.UnweightedTree.from_edges(k, prufer_edges_oracle(seq, k))
        assert t == want and hash(t) == hash(want), seq
        trees.UnweightedTree(k, t.edges)  # the public constructor accepts its edges

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_every_code(self, k):
        for seq in product(range(k), repeat=k - 2):
            self._check(seq, k)

    def test_seeded_8_vertex_codes(self):
        for seq in _prufer8_codes():
            self._check(seq, 8)

    @pytest.mark.parametrize("k", [2, trees.MAX_VERTICES + 1])
    def test_vertex_count_out_of_range(self, k):
        with pytest.raises(InvalidTreeError):
            trees.prufer_to_tree([0] * (k - 2), k)


class TestOneBfs:
    """`tree_rows_and_bits` against the k-BFS rows and the embedding's own
    BFS, which looks each edge up in sorted order."""

    @staticmethod
    def _check(t):
        rows, bits = trees.tree_rows_and_bits(t)
        assert rows == tree_distance_rows_bfs(t), t.edges
        assert bits == embed_bits_oracle(t), t.edges

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_every_labeled_tree(self, k):
        for t in trees.enumerate_labeled_trees(k):
            self._check(t)

    def test_seeded_8_vertex_prufer_codes(self):
        for seq in _prufer8_codes():
            self._check(trees.prufer_to_tree(seq, 8))

    def test_unsorted_edges_use_sorted_coordinates(self):
        """Coordinate j is edge j of (0,1), (0,3), (1,2), (3,4), whatever
        order and orientation the tree was built with."""
        t = trees.UnweightedTree(5, ((4, 3), (3, 0), (2, 1), (1, 0)))
        self._check(t)
        assert trees.tree_rows_and_bits(t)[1] == [0b0000, 0b0001, 0b0101, 0b0010, 0b1010]


class TestSameReportAsOracle:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_every_labeled_tree(self, k):
        deep = k <= 6
        new, old = _both_routes(trees.enumerate_labeled_trees(k), deep)
        assert new.lines() == old.lines()
        assert new.ok
        assert len(new.counters) == (7 if deep else 5)
        assert all(c.checked == k ** (k - 2) for c in new.counters.values())

    def test_seeded_8_vertex_prufer_codes(self):
        codes = _prufer8_codes()
        new, old = _both_routes((trees.prufer_to_tree(c, 8) for c in codes), False)
        assert new.lines() == old.lines()
        assert new.ok
        assert all(c.checked == PRUFER8_COUNT for c in new.counters.values())


@pytest.mark.parametrize("deep,want", [(True, {"det_solve_int": 1}), (False, {"det_int": 1})])
def test_one_elimination_of_d_per_tree(monkeypatch, deep, want):
    """A deep check takes det D from its inversion of D, not from a
    second elimination."""
    calls = count_calls(monkeypatch, verify, "det_int", "det_solve_int")
    report = verify.SweepReport("trees")
    verify.check_tree(trees.prufer_to_tree((1, 3, 1), 5), report, deep=deep)
    assert report.ok
    assert calls == want


FAULT_TREES = [
    ((0, 0), 4, True),
    ((1, 3, 1), 5, True),
    ((2, 2, 2, 2), 6, True),
    ((0, 1, 2, 3), 6, True),
    ((4, 4, 0, 6, 1), 7, False),
    ((7, 0, 7, 3, 3, 5), 8, False),
]


def _patch_entry(monkeypatch, change):
    real = trees.scaled_inverse_rows

    def faulty(t):
        rows = real(t)
        change(rows)
        return rows

    monkeypatch.setattr(trees, "scaled_inverse_rows", faulty)


@pytest.mark.parametrize("seq,k,deep", FAULT_TREES)
@pytest.mark.parametrize("delta", [1, -1, 1 << 40], ids=["+1", "-1", "+2^40"])
@pytest.mark.parametrize("where", ["first", "diagonal", "last"])
def test_one_wrong_inverse_entry_fails_both_routes(monkeypatch, seq, k, deep, delta, where):
    i, j = {"first": (0, 1), "diagonal": (k // 2, k // 2), "last": (k - 1, 0)}[where]

    def change(rows):
        rows[i][j] += delta

    _patch_entry(monkeypatch, change)
    new, old = _both_routes([trees.prufer_to_tree(seq, k)], deep)
    expected = {"inverse_entries_product", "inverse_entry_sum"}
    if deep:
        expected.add("inverse_entries_direct")
    assert _failed(new) == _failed(old) == expected


def _packed_rows_match(m_rows, d_rows, scale, w):
    """The packed product check at a fixed field width w."""
    cols = [sum(d << (w * j) for j, d in enumerate(col)) for col in zip(*d_rows)]
    return all(sum(map(mul, row, cols)) == scale << (w * i) for i, row in enumerate(m_rows))


@pytest.mark.parametrize("seq,k,deep", FAULT_TREES)
@pytest.mark.parametrize("width", [8, 16, 40])
def test_fault_that_aliases_a_fixed_field_width_fails(monkeypatch, seq, k, deep, width):
    """Adding 2^W M_0 - M_1 to the last row of M = 2n D^{-1} changes its
    product row by 2n (2^W e_0 - e_1), which packs to 0 at field width W:
    a check at that fixed width accepts the wrong M, the bound-derived
    width does not."""

    def change(rows):
        rows[-1] = [x + (a << width) - b for x, a, b in zip(rows[-1], rows[0], rows[1])]

    t = trees.prufer_to_tree(seq, k)
    m_rows = trees.scaled_inverse_rows(t)
    change(m_rows)
    d_rows = trees.tree_distance_rows(t)
    assert _packed_rows_match(m_rows, d_rows, 2 * t.n, width)
    assert not verify._is_scaled_identity(m_rows, d_rows, 2 * t.n)

    _patch_entry(monkeypatch, change)
    new, old = _both_routes([t], deep)
    assert "inverse_entries_product" in _failed(new)
    assert _failed(new) == _failed(old)
