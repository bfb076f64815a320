import itertools

import numpy as np
import pytest
from oracles import topsis_reference

from freshplan import mcdm
from freshplan.errors import InputError
from freshplan.mcdm import entropy_weights, normalize_criteria, rank_products, topsis_scores


def pipeline_under_test(x):
    x = np.asarray(x, dtype=float)
    z = normalize_criteria(x)
    ew = entropy_weights(z)
    result = topsis_scores(z, ew.w)
    return ew.w, result.scores


class TestNormalize:
    def test_simple_column(self):
        z = normalize_criteria(np.array([[0.0], [5.0], [10.0]]))
        assert z.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_all_zero(self):
        z = normalize_criteria(np.array([[4.0], [4.0]]))
        assert z.ravel().tolist() == [0.0, 0.0]

    def test_negative_values_allowed(self):
        z = normalize_criteria(np.array([[-2.0], [0.0], [2.0]]))
        assert z.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_single_row_rejected(self):
        with pytest.raises(InputError):
            normalize_criteria(np.array([[1.0, 2.0]]))


class TestEntropyWeights:
    def test_published_utility_to_weight_conversion(self):
        d = np.array([0.043, 0.173])  # utilities behind e = (0.957, 0.827)
        w = d / d.sum()
        assert abs(w[0] - 0.19888) < 0.005
        assert abs(w[1] - 0.80112) < 0.005

    def test_identical_columns_share_weight(self):
        z = normalize_criteria(np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]]))
        ew = entropy_weights(z)
        assert np.allclose(ew.w, [0.5, 0.5])

    def test_constant_column_gets_zero_weight(self):
        z = normalize_criteria(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 5.0]]))
        ew = entropy_weights(z)
        assert ew.e[0] == 1.0
        assert ew.w[0] == 0.0
        assert ew.w[1] == 1.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = normalize_criteria(rng.uniform(0, 10, size=(rng.integers(2, 8), rng.integers(1, 5))))
            ew = entropy_weights(z)
            assert abs(ew.w.sum() - 1.0) < 1e-12
            assert np.all(ew.w >= 0.0)
            assert np.all((ew.e >= 0.0) & (ew.e <= 1.0 + 1e-12))


class TestTopsis:
    def test_row_attaining_every_max_scores_one(self):
        z = np.array([[1.0, 1.0], [0.2, 0.6], [0.0, 0.0]])
        result = topsis_scores(z, np.array([0.3, 0.7]))
        assert result.scores[0] == pytest.approx(1.0)
        assert result.scores[2] == pytest.approx(0.0)

    def test_all_constant_columns_score_half(self):
        z = np.zeros((3, 2))
        result = topsis_scores(z, np.array([0.5, 0.5]))
        assert result.scores.tolist() == [0.5, 0.5, 0.5]

    def test_ties_break_lexicographically(self):
        z = np.array([[1.0], [1.0], [0.0]])
        result = topsis_scores(z, np.array([1.0]), ["b", "a", "c"])
        assert result.ranking == ["a", "b", "c"]

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            topsis_scores(np.ones((2, 2)), np.array([0.7, 0.7]))

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n, m = int(rng.integers(2, 11)), int(rng.integers(1, 5))
            x = rng.uniform(-50, 50, size=(n, m))
            w_fast, s_fast = pipeline_under_test(x)
            w_ref, s_ref = topsis_reference(x.tolist())
            assert np.max(np.abs(np.asarray(w_ref) - w_fast)) < 1e-9
            assert np.max(np.abs(np.asarray(s_ref) - s_fast)) < 1e-9

    def test_matches_oracle_exhaustively_on_small_grids(self):
        levels = (0.0, 0.5, 1.0)
        shapes = [(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
        for n, m in shapes:
            for cells in itertools.product(levels, repeat=n * m):
                x = np.array(cells).reshape(n, m)
                _, s_fast = pipeline_under_test(x)
                _, s_ref = topsis_reference(x.tolist())
                assert np.max(np.abs(np.asarray(s_ref) - s_fast)) < 1e-9

    def test_positive_scaling_preserves_ranking(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(1, 100, size=(6, 3))
            base = topsis_scores(normalize_criteria(x),
                                 entropy_weights(normalize_criteria(x)).w)
            scaled = x.copy()
            scaled[:, 1] *= rng.uniform(0.01, 100)
            after = topsis_scores(normalize_criteria(scaled),
                                  entropy_weights(normalize_criteria(scaled)).w)
            assert base.ranking == after.ranking

    def test_inserting_row_inside_envelope_keeps_scores(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(5, 3))
        w = np.array([0.2, 0.3, 0.5])
        z = normalize_criteria(x)
        before = topsis_scores(z, w)
        grown = np.vstack([z, z.min(axis=0)])  # column min/max unchanged
        after = topsis_scores(grown, w)
        assert np.max(np.abs(after.scores[:5] - before.scores)) < 1e-12


class TestSelectTop:
    def make_result(self, n=61):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 100, size=(n, 2))
        ids = [f"P{i:02d}" for i in range(n)]
        _, result = rank_products(ids, x)
        return ids, result

    def test_full_selection_is_rank_order(self):
        ids, result = self.make_result(8)
        assert result.ranking[:8] == result.ranking
        scores = dict(zip(ids, result.scores))
        assert all(scores[a] >= scores[b] for a, b in zip(result.ranking, result.ranking[1:]))

    def test_single_best(self):
        ids, result = self.make_result(8)
        best = ids[int(np.argmax(result.scores))]
        assert result.ranking[:1] == [best]

    def test_selects_32_unique_of_61(self):
        _, result = self.make_result(61)
        chosen = result.ranking[:32]
        assert len(chosen) == 32
        assert len(set(chosen)) == 32


def test_criteria_matrix_scores_in_unit_interval():
    rng = np.random.default_rng(6)
    x = rng.uniform(-10, 500, size=(10, 2))
    _, result = rank_products([f"P{i}" for i in range(10)], x)
    z = normalize_criteria(x)
    assert np.all((result.scores >= 0.0) & (result.scores <= 1.0))
    assert np.all(z >= 0.0) and np.all(z <= 1.0)
