"""Tests for the metadata matcher, score combination, and configuration objects."""

import numpy as np
import pytest

from repro.core.config import (
    CompressionConfig,
    ExpansionConfig,
    MergeConfig,
    TDMatchConfig,
)
from repro.core.matcher import MetadataMatcher
from repro.retrieval import combine_scores


def _matcher(queries, candidates):
    """A matcher over per-id vector dicts (one row per id, in dict order)."""
    return MetadataMatcher(
        list(queries), np.array(list(queries.values())),
        list(candidates), np.array(list(candidates.values())),
    )


class TestMetadataMatcher:
    @pytest.fixture()
    def matcher(self):
        queries = {"q1": np.array([1.0, 0.0]), "q2": np.array([0.0, 1.0])}
        candidates = {
            "a": np.array([1.0, 0.1]),
            "b": np.array([0.1, 1.0]),
            "c": np.array([0.7, 0.7]),
        }
        return _matcher(queries, candidates)

    def test_score_matrix_shape(self, matcher):
        assert matcher.score_matrix().shape == (2, 3)

    def test_match_returns_expected_best(self, matcher):
        rankings = matcher.match(k=3)
        assert rankings["q1"].ids(1) == ["a"]
        assert rankings["q2"].ids(1) == ["b"]

    def test_match_k_truncates(self, matcher):
        rankings = matcher.match(k=2)
        assert len(rankings["q1"]) == 2

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            MetadataMatcher([], np.zeros((0, 2)), ["a"], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            MetadataMatcher(["q"], np.zeros((1, 2)), [], np.zeros((0, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MetadataMatcher(["q"], np.zeros((1, 2)), ["a"], np.zeros((1, 3)))

    def test_rows_must_match_ids(self):
        with pytest.raises(ValueError, match="one row per id"):
            MetadataMatcher(["q", "r"], np.zeros((1, 2)), ["a"], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="one row per id"):
            MetadataMatcher(["q"], np.zeros(2), ["a"], np.zeros((1, 2)))

    def test_match_with_wrong_score_shape_raises(self, matcher):
        with pytest.raises(ValueError):
            matcher.match_combined(np.zeros((1, 3)))

    def test_match_combined_averages(self, matcher):
        # Strong external signal for candidate c overrides cosine.
        external = np.array([[0.0, 0.0, 10.0], [0.0, 0.0, 10.0]])
        rankings = matcher.match_combined(external, k=1)
        assert rankings["q1"].ids(1) == ["c"]

    def test_zero_vector_query_gets_ranking(self):
        matcher = MetadataMatcher(["q"], np.zeros((1, 2)), ["a", "b"], np.ones((2, 2)))
        rankings = matcher.match(k=2)
        assert len(rankings["q"]) == 2


class TestCombineScoreMatrices:
    def test_average_of_identical_matrices(self):
        m = np.array([[0.1, 0.9]])
        combined = combine_scores([m, m])
        # per-row min-max normalisation maps to [0, 1]
        np.testing.assert_allclose(combined, [[0.0, 1.0]])

    def test_weights_shift_result(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        combined = combine_scores([a, b], weights=[3.0, 1.0])
        assert combined[0, 0] > combined[0, 1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_scores([np.zeros((1, 2)), np.zeros((2, 2))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            combine_scores([])

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            combine_scores([np.zeros((1, 2))], weights=[1.0, 2.0])

    def test_constant_row_maps_to_zero(self):
        combined = combine_scores([np.array([[0.5, 0.5]])])
        np.testing.assert_allclose(combined, [[0.0, 0.0]])


class TestConfigs:
    def test_text_to_data_defaults(self):
        config = TDMatchConfig.for_text_to_data()
        assert config.word2vec.sg is True
        assert config.word2vec.window == 3

    def test_text_tasks_defaults(self):
        config = TDMatchConfig.for_text_tasks()
        assert config.word2vec.sg is False
        assert config.word2vec.window == 15

    def test_fast_config_is_smaller(self):
        fast = TDMatchConfig.fast()
        default = TDMatchConfig()
        assert fast.walks.num_walks < default.walks.num_walks
        assert fast.word2vec.epochs <= default.word2vec.epochs

    def test_override_syntax(self):
        config = TDMatchConfig.fast(walks__num_walks=3, word2vec__vector_size=16)
        assert config.walks.num_walks == 3
        assert config.word2vec.vector_size == 16

    def test_override_unknown_field_raises(self):
        with pytest.raises(AttributeError):
            TDMatchConfig.fast(walks__bogus=1)
        with pytest.raises(AttributeError):
            TDMatchConfig.fast(bogus=1)

    def test_compression_config_validation(self):
        with pytest.raises(ValueError):
            CompressionConfig(method="bogus")
        with pytest.raises(ValueError):
            CompressionConfig(ratio=0.0)
        assert CompressionConfig(method="ssum", ratio=0.1).enabled is False

    def test_expansion_config_enabled_flag(self):
        assert ExpansionConfig().enabled is False
        assert ExpansionConfig(resource=object()).enabled is True

    def test_merge_config_embedding_flag(self):
        assert MergeConfig().merge_embeddings is False
        assert MergeConfig(pretrained=object()).merge_embeddings is True
