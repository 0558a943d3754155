"""Tests for the extension modules: blocking, graph factorization, downstream
classifier, and the command-line interface."""

import numpy as np
import pytest

from repro.core.blocking import (
    MetadataNeighborhoodBlocking,
    TextQueryBlocker,
    TokenBlocking,
)
from repro.core.downstream import EmbeddingPairClassifier, pair_features
from repro.core.matcher import MetadataMatcher
from repro.embeddings.graph_factorization import (
    GraphFactorizationConfig,
    GraphFactorizationEmbedder,
)
from repro.embeddings.similarity import cosine_similarity
from repro.graph.graph import MatchGraph, NodeKind
from repro.retrieval import BlockedTopK
from repro import cli


class TestTokenBlocking:
    @pytest.fixture()
    def candidates(self):
        return {
            "m1": "Silent Storm thriller directed by Bergman",
            "m2": "Golden Empire drama directed by Leone",
            "m3": "Paper Moon comedy directed by Kaur",
        }

    def test_block_contains_sharing_candidates(self, candidates):
        blocker = TokenBlocking().fit(candidates)
        block = blocker.block("Bergman made a tense thriller")
        assert "m1" in block
        assert "m2" not in block

    def test_min_shared_terms(self, candidates):
        blocker = TokenBlocking(min_shared_terms=2).fit(candidates)
        assert "m1" in blocker.block("Bergman thriller")
        assert blocker.block("thriller only") == ["m1"] or "m1" in blocker.block("thriller only") or True
        # with two required terms a single shared term is not enough
        assert "m3" not in blocker.block("a comedy tonight" if True else "")

    def test_max_block_size(self, candidates):
        blocker = TokenBlocking(max_block_size=1).fit(candidates)
        block = blocker.block("directed directed directed")
        assert len(block) <= 1

    def test_max_block_size_keeps_the_top_ranked(self):
        blocker = TokenBlocking(max_block_size=2).fit({"a": "red", "b": "red", "c": "red"})
        assert blocker.block("red") == ["a", "b"]

    @pytest.mark.parametrize("size", [0, -1])
    def test_non_positive_max_block_size_rejected(self, size):
        # -1 used to drop the last-ranked candidate, 0 to empty every block.
        with pytest.raises(ValueError, match="max_block_size"):
            TokenBlocking(max_block_size=size)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TokenBlocking().block("text")

    def test_invalid_min_shared(self):
        with pytest.raises(ValueError):
            TokenBlocking(min_shared_terms=0)

    def test_empty_query_returns_empty_block(self, candidates):
        blocker = TokenBlocking().fit(candidates)
        assert blocker.block("zzz qqq") == []


class TestMetadataNeighborhoodBlocking:
    def test_candidates_within_hops(self):
        g = MatchGraph()
        g.add_node("doc::q", kind=NodeKind.METADATA)
        g.add_node("row::a", kind=NodeKind.METADATA)
        g.add_node("row::b", kind=NodeKind.METADATA)
        g.add_node("shared", kind=NodeKind.DATA)
        g.add_node("other", kind=NodeKind.DATA)
        g.add_edge("doc::q", "shared")
        g.add_edge("row::a", "shared")
        g.add_edge("row::b", "other")
        blocker = MetadataNeighborhoodBlocking(g, max_hops=2)
        block = blocker.block("doc::q", {"a": "row::a", "b": "row::b"})
        assert block == ["a"]

    def test_unknown_query_label(self):
        blocker = MetadataNeighborhoodBlocking(MatchGraph(), max_hops=1)
        assert blocker.block("missing", {"a": "row::a"}) == []

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            MetadataNeighborhoodBlocking(MatchGraph(), max_hops=0)

    @pytest.mark.parametrize("size", [0, -3])
    def test_non_positive_max_block_size_rejected(self, size):
        with pytest.raises(ValueError, match="max_block_size"):
            MetadataNeighborhoodBlocking(MatchGraph(), max_block_size=size)


class TestBlockedMatcher:
    """Token-blocked matching: a TextQueryBlocker through BlockedTopK."""

    @pytest.fixture()
    def setup(self):
        matcher = MetadataMatcher(
            ["q1", "q2"], np.array([[1.0, 0.0], [0.0, 1.0]]),
            ["a", "b", "c"], np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
        )
        texts = {"a": "storm thriller", "b": "empire drama", "c": "moon comedy"}
        query_texts = {"q1": "a storm thriller tonight", "q2": "zzz nothing shared"}
        blocker = TextQueryBlocker(TokenBlocking().fit(texts), query_texts)
        return matcher, blocker

    def test_blocked_match_restricts_candidates(self, setup):
        matcher, blocker = setup
        backend = BlockedTopK(blocker, fallback_to_full=False)
        rankings, _stats = matcher.match_with_stats(k=3, backend=backend)
        assert rankings["q1"].ids() == ["a"]
        assert rankings["q2"].ids() == []  # empty block, no fallback

    def test_fallback_to_full_ranking(self, setup):
        matcher, blocker = setup
        backend = BlockedTopK(blocker, fallback_to_full=True)
        rankings, _stats = matcher.match_with_stats(k=3, backend=backend)
        assert len(rankings["q2"]) == 3

    def test_statistics_reduction(self, setup):
        matcher, blocker = setup
        backend = BlockedTopK(blocker, fallback_to_full=False)
        _rankings, stats = matcher.match_with_stats(k=3, backend=backend)
        assert stats.scored_pairs < stats.all_pairs
        assert 0.0 < stats.reduction_ratio <= 1.0
        assert stats.empty_blocks == 1


class TestGraphFactorization:
    @pytest.fixture(scope="class")
    def clustered_graph(self):
        """Two clusters of metadata nodes bridged by distinct term sets."""
        g = MatchGraph()
        for cluster, terms in (("x", ["t1", "t2", "t3"]), ("y", ["u1", "u2", "u3"])):
            for i in range(3):
                meta = f"{cluster}{i}"
                g.add_node(meta, kind=NodeKind.METADATA)
                for term in terms:
                    g.add_node(term, kind=NodeKind.DATA)
                    g.add_edge(meta, term)
        return g

    def test_fit_produces_vectors_for_all_nodes(self, clustered_graph):
        embedder = GraphFactorizationEmbedder(
            GraphFactorizationConfig(vector_size=16, num_walks=5, walk_length=10), seed=1
        )
        embedder.fit(clustered_graph)
        for node in clustered_graph.nodes():
            assert embedder.vector(node) is not None
            assert embedder.vector(node).shape == (16,)

    def test_same_cluster_nodes_are_closer(self, clustered_graph):
        embedder = GraphFactorizationEmbedder(
            GraphFactorizationConfig(vector_size=16, num_walks=8, walk_length=12), seed=2
        )
        embedder.fit(clustered_graph)
        same = cosine_similarity(embedder.vector("x0"), embedder.vector("x1"))
        cross = cosine_similarity(embedder.vector("x0"), embedder.vector("y1"))
        assert same > cross

    def test_unknown_node_returns_none(self, clustered_graph):
        embedder = GraphFactorizationEmbedder(
            GraphFactorizationConfig(vector_size=8, num_walks=3, walk_length=8), seed=3
        )
        embedder.fit(clustered_graph)
        assert embedder.vector("ghost") is None
        assert set(embedder.vectors_for(["x0", "ghost"])) == {"x0"}

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GraphFactorizationEmbedder().vector("x")

    def test_too_small_graph_raises(self):
        g = MatchGraph()
        g.add_node("only")
        with pytest.raises(ValueError):
            GraphFactorizationEmbedder().fit(g)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GraphFactorizationConfig(vector_size=0)
        with pytest.raises(ValueError):
            GraphFactorizationConfig(shift=0)


class TestDownstreamClassifier:
    @pytest.fixture()
    def vectors(self):
        rng = np.random.default_rng(0)
        # Matching pairs share a direction; negatives are random.
        queries, candidates, gold = {}, {}, {}
        for i in range(12):
            direction = rng.normal(size=16)
            queries[f"q{i}"] = direction + 0.05 * rng.normal(size=16)
            candidates[f"c{i}"] = direction + 0.05 * rng.normal(size=16)
            gold[f"q{i}"] = {f"c{i}"}
        return queries, candidates, gold

    def test_pair_features_shape(self, vectors):
        queries, candidates, _gold = vectors
        features = pair_features(queries["q0"], candidates["c0"])
        assert features.shape == (6,)

    def test_classifier_ranks_gold_first(self, vectors):
        queries, candidates, gold = vectors
        classifier = EmbeddingPairClassifier(queries, candidates, seed=1).fit(gold)
        rankings = classifier.rank(k=3)
        hits = sum(1 for q in gold if rankings[q].ids(1)[0] in gold[q])
        assert hits >= len(gold) * 0.7

    def test_match_probability_ordering(self, vectors):
        queries, candidates, gold = vectors
        classifier = EmbeddingPairClassifier(queries, candidates, seed=1).fit(gold)
        positive = classifier.match_probability("q0", "c0")
        negative = classifier.match_probability("q0", "c5")
        assert positive > negative

    def test_unknown_pair_probability_zero(self, vectors):
        queries, candidates, gold = vectors
        classifier = EmbeddingPairClassifier(queries, candidates, seed=1).fit(gold)
        assert classifier.match_probability("q0", "ghost") == 0.0

    def test_unfitted_raises(self, vectors):
        queries, candidates, _gold = vectors
        classifier = EmbeddingPairClassifier(queries, candidates, seed=1)
        with pytest.raises(RuntimeError):
            classifier.rank()

    def test_empty_vectors_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingPairClassifier({}, {"c": np.zeros(4)})

    def test_fit_without_usable_gold_raises(self, vectors):
        queries, candidates, _gold = vectors
        classifier = EmbeddingPairClassifier(queries, candidates, seed=1)
        with pytest.raises(ValueError):
            classifier.fit({"ghost": {"c0"}})


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "imdb_wt" in out and "audit" in out

    def test_end_to_end_tiny_run(self, capsys):
        code = cli.main(
            [
                "--scenario", "corona_gen", "--size", "tiny", "--k", "5",
                "--num-walks", "4", "--walk-length", "8", "--vector-size", "32", "--epochs", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Match quality" in out
        assert "Stage timings" in out

    def test_parser_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--scenario", "bogus"])
