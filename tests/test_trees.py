from fractions import Fraction

import pytest

from cubedist import cube, identities, trees
from cubedist.cube import PointSet
from cubedist.errors import InvalidTreeError, ParseError
from cubedist.ratlinalg import RationalMatrix
from oracle import leibniz_det

F = Fraction

PATH3 = trees.UnweightedTree.from_edges(3, [(0, 1), (1, 2)])
STAR4 = trees.UnweightedTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
PATH4 = trees.UnweightedTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestValidation:
    def test_two_vertices_below_floor(self):
        with pytest.raises(InvalidTreeError):
            trees.UnweightedTree.from_edges(2, [(0, 1)])

    def test_wrong_edge_count(self):
        with pytest.raises(InvalidTreeError):
            trees.UnweightedTree.from_edges(4, [(0, 1), (1, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(InvalidTreeError):
            trees.UnweightedTree.from_edges(4, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop(self):
        with pytest.raises(InvalidTreeError):
            trees.UnweightedTree.from_edges(3, [(0, 0), (1, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(InvalidTreeError):
            trees.UnweightedTree.from_edges(3, [(0, 1), (1, 0)])

    def test_out_of_range_vertex(self):
        with pytest.raises(InvalidTreeError):
            trees.UnweightedTree.from_edges(3, [(0, 1), (1, 3)])

    def test_degree_sum(self):
        for t in (PATH3, STAR4, PATH4):
            assert sum(t.degrees()) == 2 * t.n


class TestDistanceMatrix:
    def test_path3(self):
        assert trees.tree_distance_rows(PATH3) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_star4(self):
        rows = trees.tree_distance_rows(STAR4)
        for leaf in (1, 2, 3):
            assert rows[0][leaf] == 1
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    assert rows[a][b] == 2


class TestEmbedding:
    def test_path3_bits(self):
        assert trees.embed_tree(PATH3).to_strings() == ["00", "10", "11"]

    def test_star4_bits(self):
        assert trees.embed_tree(STAR4).to_strings() == ["000", "100", "010", "001"]

    def test_isometry_small_trees(self):
        for k in (3, 4, 5, 6):
            for t in trees.enumerate_labeled_trees(k):
                s = trees.embed_tree(t)
                assert cube.distance_rows(s.bits) == tuple(map(tuple, trees.tree_distance_rows(t)))

    def test_image_affinely_independent(self):
        for t in trees.enumerate_labeled_trees(5):
            assert cube.affinely_independent(trees.embed_tree(t))


class TestGrahamPollak:
    @pytest.mark.parametrize(
        "k,value", [(3, 4), (4, -12), (5, 32)]
    )
    def test_formula_values(self, k, value):
        for t in trees.enumerate_labeled_trees(k):
            assert trees.graham_pollak_det(t) == value
            assert trees.tree_det_direct(t) == value

    def test_agrees_with_permutation_expansion(self):
        assert leibniz_det(trees.tree_distance_rows(STAR4)) == -12
        assert leibniz_det(trees.tree_distance_rows(PATH4)) == -12


class TestInverseEntries:
    def test_star4_entries(self):
        d = trees.graham_lovasz_inverse(STAR4)
        assert d.entries[0][0] == F(-4, 3)  # center diagonal
        assert d.entries[1][1] == F(-1, 3)  # leaf diagonal
        assert d.entries[0][1] == F(1, 3)  # center-leaf
        assert d.entries[1][2] == F(1, 6)  # leaf-leaf

    def test_path3_entries(self):
        d = trees.graham_lovasz_inverse(PATH3)
        assert d.entries[0][0] == F(-1, 4)
        assert d.entries[1][1] == -1
        assert d.entries[0][1] == F(1, 2)
        assert d.entries[0][2] == F(1, 4)

    def test_equals_exact_inverse(self):
        for k in (3, 4, 5):
            for t in trees.enumerate_labeled_trees(k):
                dmat = RationalMatrix.from_rows(trees.tree_distance_rows(t))
                assert trees.graham_lovasz_inverse(t) == dmat.inverse()

    def test_entry_sum_is_2_over_n(self):
        for k in (3, 4, 5, 6):
            for t in trees.enumerate_labeled_trees(k):
                d = trees.graham_lovasz_inverse(t)
                assert sum((e for row in d.entries for e in row), F(0)) == F(2, k - 1)


class TestTreeDinvOnes:
    def test_examples(self):
        assert trees.tree_dinv_ones(STAR4) == F(2, 3)
        assert trees.tree_dinv_ones(PATH4) == F(2, 3)
        assert trees.tree_dinv_ones(PATH3) == 1

    def test_matches_embedded_point_set(self):
        for t in (PATH3, STAR4, PATH4):
            assert identities.dinv_ones(trees.embed_tree(t)) == trees.tree_dinv_ones(t)

    def test_reads_the_closed_form_inverse(self, monkeypatch):
        # one entry of 2n D^{-1} raised by 1 raises the value by 1/(2n)
        real = trees.scaled_inverse_rows

        def perturbed(t):
            rows = real(t)
            rows[0][0] += 1
            return rows

        monkeypatch.setattr(trees, "scaled_inverse_rows", perturbed)
        assert trees.tree_dinv_ones(STAR4) == F(2, 3) + F(1, 6)


class TestPrufer:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_cayley_count(self, k):
        seen = {t.edges for t in trees.enumerate_labeled_trees(k)}
        assert len(seen) == k ** (k - 2)

    def test_decode_example(self):
        t = trees.prufer_to_tree((3, 3), 4)
        assert t.edges == ((0, 3), (1, 3), (2, 3))

    def test_bad_sequence_length(self):
        with pytest.raises(InvalidTreeError):
            trees.prufer_to_tree((0, 1, 2), 4)

    def test_bad_sequence_value(self):
        with pytest.raises(InvalidTreeError):
            trees.prufer_to_tree((4,), 3)


class TestNonUniqueness:
    def test_h3_witness_is_not_an_embedded_tree(self):
        # the H_3 set with det -12 and <D^-1 1,1> = 2/3 matches no
        # 4-vertex labeled tree's distance matrix
        s = PointSet.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
        assert identities.det_distance_matrix(s) == -12
        assert identities.dinv_ones(s) == F(2, 3)
        d = [list(row) for row in cube.distance_rows(s.bits)]
        for t in trees.enumerate_labeled_trees(4):
            assert trees.tree_distance_rows(t) != d


class TestParsing:
    def test_round_trip(self):
        t = trees.parse_tree("4\n0 1\n0 2\n0 3\n")
        assert t == STAR4

    def test_header_error(self):
        with pytest.raises(ParseError):
            trees.parse_tree("")
        with pytest.raises(ParseError):
            trees.parse_tree("x\n0 1\n")

    def test_edge_line_error(self):
        with pytest.raises(ParseError) as err:
            trees.parse_tree("3\n0 1\n1 2 3\n")
        assert "line 3" in str(err.value)

    def test_non_tree_input(self):
        with pytest.raises(InvalidTreeError):
            trees.parse_tree("4\n0 1\n1 2\n2 0\n")
