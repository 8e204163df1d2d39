import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgmlab.gf2 import (
    BitMatrix,
    bits_from_string,
    bits_to_string,
    load_matrix,
    mat_vec_mul,
    rank,
    save_matrix,
)
from bgmlab.graph import BipartiteGraph


def ref_rank(dense: np.ndarray) -> int:
    """Plain row-elimination rank, kept independent of the library path."""
    a = dense.copy() % 2
    r = 0
    for c in range(a.shape[1]):
        rows = np.nonzero(a[r:, c])[0]
        if rows.size == 0:
            continue
        pivot = r + rows[0]
        a[[r, pivot]] = a[[pivot, r]]
        for other in range(a.shape[0]):
            if other != r and a[other, c]:
                a[other] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def dense_strategy(max_dim=8):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(lambda rows: np.array(rows, dtype=np.uint8))


class TestBitHelpers:
    def test_bits_round_trip(self):
        v = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert bits_to_string(v) == "1011"
        assert bits_from_string("1011").dtype == np.uint8
        assert np.array_equal(bits_from_string("1011"), v)

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            bits_from_string("10x1")


class TestBitMatrix:
    def test_dense_round_trip(self):
        d = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
        m = BitMatrix.from_dense(d)
        assert np.array_equal(m.to_dense(), d)
        assert m.nnz() == 5
        assert np.array_equal(m.row_weights(), [2, 0, 3])
        assert np.array_equal(m.col_weights(), [2, 1, 2])
        assert [s.tolist() for s in m.row_supports] == [[0, 2], [], [0, 1, 2]]
        assert m.edges.tolist() == [[0, 0], [0, 2], [2, 0], [2, 1], [2, 2]]

    def test_identity(self):
        identity = BitMatrix(3, 3, [(i, i) for i in range(3)])
        assert np.array_equal(identity.to_dense(), np.eye(3, dtype=np.uint8))

    def test_equality(self):
        d = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert BitMatrix.from_dense(d) == BitMatrix.from_dense(d)
        assert BitMatrix.from_dense(d) != BitMatrix(2, 2, [])

    def test_out_of_range_support_rejected(self):
        for outside in ([(0, 3)], [(1, 0)], [(0, -1)]):
            with pytest.raises(ValueError, match="inside 1x3"):
                BitMatrix(1, 3, outside)
        with pytest.raises(ValueError, match="unique"):
            BitMatrix(1, 3, [(0, 1), (0, 1)])
        # any order gives the same, sorted, matrix
        shuffled = BitMatrix(2, 3, [(1, 0), (0, 2), (0, 1)])
        assert shuffled == BitMatrix(2, 3, [(0, 1), (0, 2), (1, 0)])
        assert shuffled.edges.tolist() == [[0, 1], [0, 2], [1, 0]]

    def test_non_integer_positions_rejected(self):
        for given in ([(0.7, 1.9)], np.array([[0.0, 1.0]]), [(True, False)]):
            with pytest.raises(ValueError, match="integer positions"):
                BitMatrix(2, 2, given)
        assert BitMatrix(2, 2, []).nnz() == 0
        assert BitMatrix(2, 2, np.array([[0, 1]], dtype=np.uint8)).edges.tolist() == [[0, 1]]

    def test_keeps_a_read_only_column_major_copy(self):
        # already row-major, so the constructor's sort makes no copy of its own
        given = np.array([[0, 2], [1, 0]], dtype=np.int64)
        m = BitMatrix(2, 3, given)
        given[0, 0] = 1
        assert m.edges.tolist() == [[0, 2], [1, 0]]
        assert m.edges.flags.f_contiguous and not m.edges.flags.writeable


class TestMatVec:
    def test_hand_worked_product(self):
        # rows 1100, 0110, 0011 all selected: 1100 ^ 0110 ^ 0011 = 1001
        g = BitMatrix(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)])
        out = mat_vec_mul(g, np.array([1, 1, 1], dtype=np.uint8))
        assert bits_to_string(out) == "1001"

    def test_zero_vector(self):
        g = BitMatrix(3, 5, [(0, 0), (1, 1), (1, 2), (2, 4)])
        assert not mat_vec_mul(g, np.zeros(3, dtype=np.uint8)).any()

    def test_matches_dense_product_on_sparse_matrices(self):
        # sparse enough that many rows and columns are all zero; each matrix
        # is also multiplied by the all-zero and the all-one vector
        rng = np.random.default_rng(12)
        for rows, cols, p in ((1, 1, 0.5), (7, 3, 0.2), (40, 60, 0.03), (200, 150, 0.01), (64, 64, 0.0)):
            dense = (rng.random((rows, cols)) < p).astype(np.uint8)
            dense[rng.integers(rows)] = 0
            a = BitMatrix.from_dense(dense)
            for v in (rng.integers(0, 2, size=rows, dtype=np.uint8), np.zeros(rows, np.uint8), np.ones(rows, np.uint8)):
                out = mat_vec_mul(a, v)
                assert out.dtype == np.uint8
                assert np.array_equal(out, (v @ a.to_dense()) & 1)
        for rows, cols in ((5, 9), (1, 1), (0, 4)):
            zero = BitMatrix(rows, cols, [])
            assert np.array_equal(mat_vec_mul(zero, np.ones(rows, np.uint8)), np.zeros(cols, np.uint8))

    @given(dense_strategy(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_arithmetic(self, d, data):
        v = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=d.shape[0], max_size=d.shape[0])),
            dtype=np.uint8,
        )
        got = mat_vec_mul(BitMatrix.from_dense(d), v)
        assert np.array_equal(got, (v @ d) % 2)
        # the same matrix as a normal graph whose edges arrive in reverse order
        graph = BipartiteGraph(d.shape[0], d.shape[1], np.argwhere(d)[::-1])
        assert np.array_equal(mat_vec_mul(graph, v), (v @ d) % 2)

    @given(dense_strategy(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, d, data):
        n = d.shape[0]
        m = BitMatrix.from_dense(d)
        u = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        lhs = mat_vec_mul(m, u ^ v)
        rhs = mat_vec_mul(m, u) ^ mat_vec_mul(m, v)
        assert np.array_equal(lhs, rhs)


class TestRank:
    def test_known_ranks(self):
        assert rank(BitMatrix(5, 5, [(i, i) for i in range(5)])) == 5
        assert rank(BitMatrix(4, 4, [])) == 0
        # two equal rows collapse
        d = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        assert rank(BitMatrix.from_dense(d)) == 2

    @given(dense_strategy())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_elimination(self, d):
        assert rank(BitMatrix.from_dense(d)) == ref_rank(d)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        d = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [0, 1, 1, 1]], dtype=np.uint8)
        m = BitMatrix.from_dense(d)
        path = tmp_path / "m.txt"
        save_matrix(m, path)
        assert load_matrix(path) == m

    def test_zero_rows_survive(self, tmp_path):
        m = BitMatrix(3, 7, [])
        path = tmp_path / "z.txt"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.rows == 3 and back.cols == 7 and back.nnz() == 0

    def test_columns_in_any_order(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 4\n3 0\n\n")
        assert load_matrix(path) == BitMatrix(2, 4, [(0, 0), (0, 3)])

    @pytest.mark.parametrize("bad_row", ("0 x", "4", "1 1"))
    def test_bad_row_named_with_its_file(self, tmp_path, bad_row):
        # a token that is not an integer, a column out of range, a repeat
        path = tmp_path / "m.txt"
        path.write_text(f"2 4\n0 2\n{bad_row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 1 "):
            load_matrix(path)

    def test_data_after_the_rows_rejected(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("1 2\n0\n1\n")
        with pytest.raises(ValueError, match="data after the 1 rows"):
            load_matrix(path)
