"""Tests for the vectorized Word2Vec training engine.

Covers the alias sampler, the numpy pair extraction (exact parity with the
reference token loop under a shared window seed), the segment-sum scatter,
trainer selection/validation, and end-to-end ranking parity of the
``vectorized`` and ``reference`` trainers through ``TDMatch.match``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.embeddings import word2vec
from repro.embeddings.sampling import AliasSampler
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import (
    Word2Vec,
    Word2VecConfig,
    segment_scatter_add,
)


# ----------------------------------------------------------------------
# Alias sampler
class TestAliasSampler:
    def test_matches_distribution(self):
        probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        sampler = AliasSampler(probs)
        draws = sampler.sample(np.random.default_rng(0), size=200_000)
        freq = np.bincount(draws, minlength=5) / draws.size
        np.testing.assert_allclose(freq, probs, atol=0.01)

    def test_unnormalised_input_is_normalised(self):
        sampler = AliasSampler([2.0, 2.0])
        np.testing.assert_allclose(sampler.probabilities, [0.5, 0.5])

    def test_zero_probability_outcome_never_drawn(self):
        sampler = AliasSampler([0.5, 0.0, 0.5])
        draws = sampler.sample(np.random.default_rng(1), size=50_000)
        assert not np.any(draws == 1)

    def test_single_outcome(self):
        sampler = AliasSampler([1.0])
        assert np.all(sampler.sample(np.random.default_rng(2), size=100) == 0)

    def test_deterministic_given_seed(self):
        sampler = AliasSampler([0.3, 0.3, 0.4])
        a = sampler.sample(np.random.default_rng(7), size=(4, 5))
        b = sampler.sample(np.random.default_rng(7), size=(4, 5))
        assert a.shape == (4, 5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "bad",
        [[], [-0.1, 1.1], [np.nan, 1.0], [0.0, 0.0], [[0.5, 0.5]]],
    )
    def test_invalid_inputs_raise(self, bad):
        with pytest.raises(ValueError):
            AliasSampler(bad)

    def test_alias_over_vocab_distribution_applies_power(self):
        vocab = Vocabulary.from_sentences([["a"] * 16 + ["b"]])
        sampler = AliasSampler(vocab.negative_sampling_distribution())
        counts = np.array([16.0, 1.0])
        expected = counts ** 0.75 / (counts ** 0.75).sum()
        np.testing.assert_allclose(sampler.probabilities, expected)

    def test_alias_matches_rng_choice_statistics(self):
        """The alias table draws from the same law as rng.choice(p=...)."""
        vocab = Vocabulary.from_sentences([["a"] * 9 + ["b"] * 3 + ["c"]])
        dist = vocab.negative_sampling_distribution()
        alias_draws = AliasSampler(dist).sample(np.random.default_rng(3), size=100_000)
        choice_draws = np.random.default_rng(3).choice(len(dist), size=100_000, p=dist)
        alias_freq = np.bincount(alias_draws, minlength=len(dist)) / 100_000
        choice_freq = np.bincount(choice_draws, minlength=len(dist)) / 100_000
        np.testing.assert_allclose(alias_freq, choice_freq, atol=0.01)


# ----------------------------------------------------------------------
# Segment-sum scatter
class TestSegmentScatterAdd:
    def test_matches_add_at(self):
        rng = np.random.default_rng(0)
        for size, vocab in ((1, 1), (7, 3), (512, 50), (1000, 1000)):
            expected = rng.random((vocab, 8))
            actual = expected.copy()
            idx = rng.integers(0, vocab, size=size)
            upd = rng.random((size, 8))
            np.add.at(expected, idx, upd)
            segment_scatter_add(actual, idx, upd)
            np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_empty_indices_noop(self):
        matrix = np.ones((3, 4))
        segment_scatter_add(matrix, np.empty(0, dtype=np.int64), np.empty((0, 4)))
        np.testing.assert_array_equal(matrix, np.ones((3, 4)))

    def test_float32(self):
        matrix = np.zeros((4, 4), dtype=np.float32)
        idx = np.array([1, 1, 3])
        upd = np.ones((3, 4), dtype=np.float32)
        segment_scatter_add(matrix, idx, upd)
        assert matrix.dtype == np.float32
        np.testing.assert_allclose(matrix[1], 2.0)
        np.testing.assert_allclose(matrix[3], 1.0)
        np.testing.assert_allclose(matrix[0], 0.0)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_row_count_mismatch_raises(self, rows):
        with pytest.raises(ValueError):
            segment_scatter_add(np.zeros((4, 2)), np.array([0, 1, 1]), np.ones((rows, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        vocab=st.integers(1, 12),
        size=st.integers(0, 40),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_equals_csr_matrix_fallback(self, dtype, vocab, size, dim, seed):
        """The direct kernel and the public csr_matrix product agree bit for bit.

        Small vocabularies force repeated indices; ``vocab=1`` gives a single
        segment and ``size=0`` an empty batch.
        """
        assert word2vec._csr_matvecs is not None
        rng = np.random.default_rng(seed)
        start = rng.standard_normal((vocab, dim)).astype(dtype)
        idx = rng.integers(0, vocab, size=size)
        upd = rng.standard_normal((size, dim)).astype(dtype)
        kernel = start.copy()
        segment_scatter_add(kernel, idx, upd)
        fallback = start.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(word2vec, "_csr_matvecs", None)
            segment_scatter_add(fallback, idx, upd)
        assert kernel.dtype == dtype
        assert np.array_equal(kernel, fallback)

    def test_fallback_trains_identical_model(self, monkeypatch):
        config = Word2VecConfig(vector_size=16, epochs=2)
        corpus = cooccurrence_corpus(60)
        kernel = Word2Vec(config, seed=5).train(corpus).embedding_matrix()
        monkeypatch.setattr(word2vec, "_csr_matvecs", None)
        fallback = Word2Vec(config, seed=5).train(corpus).embedding_matrix()
        assert np.array_equal(kernel, fallback)


# ----------------------------------------------------------------------
# Pair extraction
def _reference_pairs(model, encoded, seed):
    model._rng = np.random.default_rng(seed)
    return model._extract_pairs(encoded, None)


def _vectorized_pairs(model, encoded, seed):
    model._rng = np.random.default_rng(seed)
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
    lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
    return model._extract_pairs_vectorized(flat, lengths, None)


def _model(window: int) -> Word2Vec:
    return Word2Vec(Word2VecConfig(vector_size=8, window=window, epochs=1))


class TestPairExtraction:
    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_exact_sequence_parity(self, window):
        """Same window seed → the two extractions emit identical pair arrays."""
        encoded = [[0, 1, 2, 3, 4, 5], [2, 2, 1], [4, 0], [1, 3, 1, 3, 1]]
        model = _model(window)
        ref_c, ref_x = _reference_pairs(model, encoded, seed=9)
        vec_c, vec_x = _vectorized_pairs(model, encoded, seed=9)
        np.testing.assert_array_equal(ref_c, vec_c)
        np.testing.assert_array_equal(ref_x, vec_x)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        sentence=st.lists(st.integers(0, 9), min_size=2, max_size=20),
        window=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_pair_multiset_parity_per_sentence(self, sentence, window, seed):
        """Property: per (sentence, window-seed), pair multisets agree."""
        model = _model(window)
        ref = _reference_pairs(model, [sentence], seed)
        vec = _vectorized_pairs(model, [sentence], seed)
        ref_pairs = sorted(zip(ref[0].tolist(), ref[1].tolist()))
        vec_pairs = sorted(zip(vec[0].tolist(), vec[1].tolist()))
        assert ref_pairs == vec_pairs

    def test_windows_resample_across_epochs(self):
        """Successive extractions under one rng draw fresh windows."""
        encoded = [list(range(40))]
        model = _model(3)
        model._rng = np.random.default_rng(0)
        flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
        lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
        first = model._extract_pairs_vectorized(flat, lengths, None)
        second = model._extract_pairs_vectorized(flat, lengths, None)
        assert first[0].size != second[0].size or not np.array_equal(first[1], second[1])

    def test_extraction_respects_sentence_boundaries(self):
        """No pair may span two sentences."""
        encoded = [[0, 1], [2, 3]]
        model = _model(5)
        centers, contexts = _vectorized_pairs(model, encoded, seed=1)
        for c, x in zip(centers.tolist(), contexts.tolist()):
            assert (c < 2) == (x < 2)

    def test_subsampling_drops_tokens_and_short_sentences(self):
        model = Word2Vec(Word2VecConfig(vector_size=8, window=2, subsample=1e-4))
        model._rng = np.random.default_rng(0)
        flat = np.asarray([0, 0, 0, 1, 0, 0], dtype=np.int64)
        lengths = np.asarray([3, 3], dtype=np.int64)
        # token 0 is kept with ~1% probability: virtually every sentence
        # shrinks below two tokens and contributes nothing.
        keep = np.asarray([0.01, 1.0])
        centers, _contexts = model._extract_pairs_vectorized(flat, lengths, keep)
        assert centers.size == 0


# ----------------------------------------------------------------------
# Trainer behaviour and config validation
def cooccurrence_corpus(n_sentences=300, seed=0):
    rng = np.random.default_rng(seed)
    groups = [["apple", "banana", "cherry"], ["table", "chair", "sofa"]]
    return [
        [str(w) for w in rng.choice(groups[int(rng.integers(0, 2))], size=6)]
        for _ in range(n_sentences)
    ]


class TestTrainerSelection:
    def test_default_trainer_is_vectorized(self):
        assert Word2VecConfig().trainer == "vectorized"

    def test_unknown_trainer_raises(self):
        with pytest.raises(ValueError):
            Word2VecConfig(trainer="gensim")

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            Word2VecConfig(batch_size=0)

    def test_min_learning_rate_validated(self):
        with pytest.raises(ValueError):
            Word2VecConfig(min_learning_rate=-0.1)

    def test_vocabulary_has_no_dead_negative_table(self):
        assert not hasattr(Vocabulary(), "_neg_table")

    def test_reference_trainer_learns_structure(self):
        config = Word2VecConfig(vector_size=32, epochs=4, trainer="reference")
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus())
        same = cosine_similarity(model.vector("apple"), model.vector("banana"))
        cross = cosine_similarity(model.vector("apple"), model.vector("chair"))
        assert same > cross

    @pytest.mark.parametrize("trainer", ["vectorized", "reference"])
    def test_deterministic_given_seed(self, trainer):
        config = Word2VecConfig(vector_size=16, epochs=2, trainer=trainer)
        corpus = cooccurrence_corpus(80)
        m1 = Word2Vec(config, seed=3).train(corpus)
        m2 = Word2Vec(config, seed=3).train(corpus)
        np.testing.assert_array_equal(m1.vector("apple"), m2.vector("apple"))

    @pytest.mark.parametrize("trainer", ["vectorized", "reference"])
    def test_stats_recorded(self, trainer):
        config = Word2VecConfig(vector_size=8, epochs=2, trainer=trainer)
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus(40))
        assert model.stats is not None
        assert model.stats.trainer == trainer
        assert model.stats.epochs == 2
        assert model.stats.pairs > 0
        assert model.stats.seconds >= 0.0
        assert model.stats.pairs_per_sec >= 0.0

    @pytest.mark.parametrize("trainer", ["vectorized", "reference"])
    def test_empty_fine_tune_replaces_stats(self, trainer):
        config = Word2VecConfig(vector_size=8, epochs=2, trainer=trainer)
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus(40))
        returned = model.fine_tune([])
        assert returned.pairs == 0
        assert model.stats is returned

    def test_vectorized_trains_in_float32(self):
        model = Word2Vec(Word2VecConfig(vector_size=8, epochs=1), seed=1).train(
            cooccurrence_corpus(20)
        )
        assert model.embedding_matrix().dtype == np.float32

    def test_reference_trains_in_float64(self):
        config = Word2VecConfig(vector_size=8, epochs=1, trainer="reference")
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus(20))
        assert model.embedding_matrix().dtype == np.float64

    def test_vectorized_cbow_learns_structure(self):
        config = Word2VecConfig(vector_size=32, epochs=4, sg=False)
        model = Word2Vec(config, seed=2).train(cooccurrence_corpus())
        same = cosine_similarity(model.vector("table"), model.vector("sofa"))
        cross = cosine_similarity(model.vector("table"), model.vector("banana"))
        assert same > cross

    def test_vectorized_subsampling_still_trains(self):
        config = Word2VecConfig(vector_size=16, epochs=2, subsample=1e-2)
        model = Word2Vec(config, seed=4).train(cooccurrence_corpus(100))
        assert model.vector("apple") is not None

    def test_tiny_batch_size_still_trains(self):
        config = Word2VecConfig(vector_size=8, epochs=1, batch_size=1)
        model = Word2Vec(config, seed=1).train([["a", "b", "c"], ["b", "c", "a"]])
        assert model.vector("a") is not None


# ----------------------------------------------------------------------
# End-to-end parity through the pipeline
@pytest.fixture(scope="module")
def tiny_parity_runs():
    scenario = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=11)
    runs = {}
    for trainer in ("vectorized", "reference"):
        config = TDMatchConfig.fast()
        config.word2vec.trainer = trainer
        pipeline = TDMatch(config, seed=3)
        pipeline.fit(scenario.first, scenario.second)
        runs[trainer] = (pipeline, pipeline.match(k=5))
    return scenario, runs


class TestTrainerParity:
    def test_top1_ids_identical(self, tiny_parity_runs):
        """Exact-id parity at small scale: the matched candidate agrees."""
        _scenario, runs = tiny_parity_runs
        vec_ids = runs["vectorized"][1].as_id_lists()
        ref_ids = runs["reference"][1].as_id_lists()
        assert set(vec_ids) == set(ref_ids)
        for query in vec_ids:
            assert vec_ids[query][:1] == ref_ids[query][:1]

    def test_quality_parity(self, tiny_parity_runs):
        from repro.eval.metrics import evaluate_rankings

        scenario, runs = tiny_parity_runs
        reports = {
            trainer: evaluate_rankings(trainer, rankings, scenario.gold, ks=(1, 5))
            for trainer, (_p, rankings) in runs.items()
        }
        assert abs(reports["vectorized"].mrr - reports["reference"].mrr) <= 0.05
        assert (
            abs(reports["vectorized"].map_at[5] - reports["reference"].map_at[5]) <= 0.05
        )

    def test_pipeline_records_trainer_notes(self, tiny_parity_runs):
        _scenario, runs = tiny_parity_runs
        for trainer, (pipeline, _rankings) in runs.items():
            model = pipeline.report()["model"]
            assert model["trainer"] == trainer
            assert model["pairs_per_sec"] > 0


class TestCliTrainerFlag:
    ARGS = [
        "--scenario", "corona_gen", "--size", "tiny", "--k", "5",
        "--num-walks", "4", "--walk-length", "8", "--vector-size", "32", "--epochs", "1",
    ]

    def test_default_trainer_in_output(self, capsys):
        assert cli.main(self.ARGS) == 0
        assert "w2v trainer: vectorized" in capsys.readouterr().out
