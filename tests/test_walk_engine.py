"""Tests for the CSR snapshot and the vectorised walk engine.

The contract under test: the python and CSR engines implement the *same*
walk semantics — identical start-node multiset, uniform neighbour choice,
early stop on isolated nodes — with seeded determinism within each engine.
In an undirected graph a walk can only stop at its start node (any entered
node has at least the incoming edge back), so walk lengths are a
deterministic function of the start node and the two engines must agree on
them exactly, not just statistically.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.graph.csr import build_csr, csr_adjacency
from repro.graph.graph import MatchGraph
from repro.graph.walk_engine import (
    CSRWalkEngine,
    PythonWalkEngine,
    make_walk_engine,
)
from repro.graph.walks import RandomWalkConfig, generate_walks, iter_walks


def build_graph(num_nodes: int, edges, isolated=()):
    graph = MatchGraph()
    for i in range(num_nodes):
        graph.add_node(f"n{i}")
    for label in isolated:
        graph.add_node(label)
    for u, v in edges:
        graph.add_edge(f"n{u}", f"n{v}")
    return graph


@pytest.fixture()
def diamond_graph():
    """A 4-cycle with a pendant node and two isolated nodes."""
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)], isolated=["iso1", "iso2"])
    return g


# ----------------------------------------------------------------------
# CSR snapshot
class TestCSRAdjacency:
    def test_structure_matches_graph(self, diamond_graph):
        csr = build_csr(diamond_graph)
        assert csr.num_nodes == diamond_graph.num_nodes()
        assert csr.num_directed_edges == 2 * diamond_graph.num_edges()
        for label in diamond_graph.nodes():
            node_id = csr.ids[label]
            neighbor_labels = {csr.labels[i] for i in csr.neighbors_of(node_id)}
            assert neighbor_labels == diamond_graph.neighbors(label)

    def test_rows_sorted_for_deterministic_layout(self, diamond_graph):
        csr = build_csr(diamond_graph)
        for node_id in range(csr.num_nodes):
            row = csr.neighbors_of(node_id)
            assert list(row) == sorted(row)

    def test_encode_decode_roundtrip(self, diamond_graph):
        csr = build_csr(diamond_graph)
        labels = diamond_graph.nodes()
        assert csr.decode(csr.encode(labels)) == labels

    def test_snapshot_cached_until_mutation(self, diamond_graph):
        first = csr_adjacency(diamond_graph)
        assert csr_adjacency(diamond_graph) is first
        diamond_graph.add_node("new")
        second = csr_adjacency(diamond_graph)
        assert second is not first
        assert "new" in second.ids
        assert csr_adjacency(diamond_graph) is second

    def test_version_bumps_on_mutations(self):
        g = MatchGraph()
        v0 = g.version
        g.add_node("a")
        g.add_node("b")
        assert g.version > v0
        v1 = g.version
        g.add_edge("a", "b")
        assert g.version > v1
        v2 = g.version
        g.remove_edge("a", "b")
        assert g.version > v2
        v3 = g.version
        g.remove_node("b")
        assert g.version > v3

    def test_empty_graph_snapshot(self):
        csr = build_csr(MatchGraph())
        assert csr.num_nodes == 0
        assert csr.indices.size == 0


# ----------------------------------------------------------------------
# Engine parity
def corpus_of(engine, seed):
    return list(engine.iter_walks(seed=seed))


class TestEngineParity:
    def test_start_node_multiset_identical(self, diamond_graph):
        config = RandomWalkConfig(num_walks=7, walk_length=5)
        python_walks = corpus_of(PythonWalkEngine(diamond_graph, config), seed=3)
        csr_walks = corpus_of(CSRWalkEngine(diamond_graph, config), seed=3)
        assert Counter(w[0] for w in python_walks) == Counter(w[0] for w in csr_walks)
        assert len(python_walks) == len(csr_walks) == 7 * diamond_graph.num_nodes()

    def test_walk_lengths_identical_per_start(self, diamond_graph):
        config = RandomWalkConfig(num_walks=4, walk_length=6)
        python_walks = corpus_of(PythonWalkEngine(diamond_graph, config), seed=1)
        csr_walks = corpus_of(CSRWalkEngine(diamond_graph, config), seed=1)

        def lengths_by_start(walks):
            return {
                start: sorted(len(w) for w in walks if w[0] == start)
                for start in diamond_graph.nodes()
            }

        assert lengths_by_start(python_walks) == lengths_by_start(csr_walks)

    def test_isolated_nodes_stop_immediately_in_both(self, diamond_graph):
        config = RandomWalkConfig(num_walks=3, walk_length=8)
        for engine in (
            PythonWalkEngine(diamond_graph, config),
            CSRWalkEngine(diamond_graph, config),
        ):
            walks = corpus_of(engine, seed=5)
            for walk in walks:
                if walk[0] in ("iso1", "iso2"):
                    assert walk == [walk[0]]
                else:
                    assert len(walk) == config.walk_length

    def test_csr_steps_follow_edges(self, diamond_graph):
        config = RandomWalkConfig(num_walks=5, walk_length=10)
        for walk in corpus_of(CSRWalkEngine(diamond_graph, config), seed=2):
            for u, v in zip(walk, walk[1:]):
                assert diamond_graph.has_edge(u, v)

    def test_csr_neighbor_choice_covers_all_neighbors(self):
        # Star graph: with enough walks from the hub every leaf must appear
        # as a first step (uniform choice cannot starve a neighbour).
        g = build_graph(6, [(0, i) for i in range(1, 6)])
        config = RandomWalkConfig(num_walks=200, walk_length=2, start_nodes=["n0"])
        seen = {w[1] for w in corpus_of(CSRWalkEngine(g, config), seed=9)}
        assert seen == {f"n{i}" for i in range(1, 6)}

    def test_batched_generation_preserves_semantics(self, diamond_graph):
        # Batching regroups the rng draws (so the corpora differ walk by
        # walk) but the walk semantics must be invariant to batch size.
        config = RandomWalkConfig(num_walks=6, walk_length=5)
        small_walks = corpus_of(CSRWalkEngine(diamond_graph, config, batch_size=2), seed=4)
        large_walks = corpus_of(
            CSRWalkEngine(diamond_graph, config, batch_size=10_000), seed=4
        )
        assert len(small_walks) == len(large_walks)
        assert Counter(w[0] for w in small_walks) == Counter(w[0] for w in large_walks)
        assert Counter((w[0], len(w)) for w in small_walks) == Counter(
            (w[0], len(w)) for w in large_walks
        )
        for walk in small_walks:
            for u, v in zip(walk, walk[1:]):
                assert diamond_graph.has_edge(u, v)

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=1, max_value=10),
        edge_picks=st.sets(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20
        ),
        num_isolated=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_parity_on_random_graphs(
        self, num_nodes, edge_picks, num_isolated, seed
    ):
        edges = [
            (u % num_nodes, v % num_nodes)
            for u, v in edge_picks
            if u % num_nodes != v % num_nodes
        ]
        graph = build_graph(
            num_nodes, edges, isolated=[f"iso{i}" for i in range(num_isolated)]
        )
        config = RandomWalkConfig(num_walks=3, walk_length=4)
        python_walks = corpus_of(PythonWalkEngine(graph, config), seed=seed)
        csr_walks = corpus_of(CSRWalkEngine(graph, config), seed=seed)
        # Identical start-node statistics...
        assert Counter(w[0] for w in python_walks) == Counter(w[0] for w in csr_walks)
        # ... and identical walk-length statistics per start node.
        python_lengths = Counter((w[0], len(w)) for w in python_walks)
        csr_lengths = Counter((w[0], len(w)) for w in csr_walks)
        assert python_lengths == csr_lengths
        # CSR walks only traverse real edges.
        for walk in csr_walks:
            for u, v in zip(walk, walk[1:]):
                assert graph.has_edge(u, v)


# ----------------------------------------------------------------------
# Determinism
class TestDeterminism:
    @pytest.mark.parametrize("engine_name", ["reference", "csr"])
    def test_same_seed_same_corpus(self, diamond_graph, engine_name):
        config = RandomWalkConfig(num_walks=4, walk_length=6, walk_engine=engine_name)
        first = generate_walks(diamond_graph, config, seed=42)
        second = generate_walks(diamond_graph, config, seed=42)
        assert first == second

    @pytest.mark.parametrize("engine_name", ["reference", "csr"])
    def test_different_seeds_differ(self, diamond_graph, engine_name):
        config = RandomWalkConfig(num_walks=8, walk_length=10, walk_engine=engine_name)
        assert generate_walks(diamond_graph, config, seed=1) != generate_walks(
            diamond_graph, config, seed=2
        )

    def test_generator_seed_accepted(self, diamond_graph):
        config = RandomWalkConfig(num_walks=2, walk_length=4)
        rng = np.random.default_rng(7)
        walks = generate_walks(diamond_graph, config, seed=rng)
        assert len(walks) == 2 * diamond_graph.num_nodes()

    @pytest.mark.parametrize("engine_name", ["reference", "csr"])
    def test_determinism_across_processes(self, engine_name):
        # Same seed must give the same corpus under different hash seeds:
        # neighbour order must never come from raw set iteration order.
        import os
        import subprocess
        import sys

        snippet = (
            "from repro.graph.graph import MatchGraph\n"
            "from repro.graph.walks import RandomWalkConfig, generate_walks\n"
            "g = MatchGraph()\n"
            "for i in range(8): g.add_node(f'node{i}')\n"
            "for i in range(8):\n"
            "    for j in range(i + 1, 8):\n"
            "        if (i + j) % 3: g.add_edge(f'node{i}', f'node{j}')\n"
            f"cfg = RandomWalkConfig(num_walks=2, walk_length=5, walk_engine={engine_name!r})\n"
            "print(generate_walks(g, cfg, seed=7))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
            env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Engine selection and fallback
class TestEngineSelection:
    def test_config_selects_engine(self, diamond_graph):
        python_config = RandomWalkConfig(walk_engine="reference")
        csr_config = RandomWalkConfig(walk_engine="csr")
        assert isinstance(make_walk_engine(diamond_graph, python_config), PythonWalkEngine)
        assert isinstance(make_walk_engine(diamond_graph, csr_config), CSRWalkEngine)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(walk_engine="gpu")

    def test_fallback_to_python_when_csr_unavailable(self, diamond_graph, monkeypatch):
        import repro.graph.walk_engine as walk_engine_module

        def broken_snapshot(graph):
            raise MemoryError("snapshot unavailable")

        monkeypatch.setattr(walk_engine_module, "csr_adjacency", broken_snapshot)
        engine = make_walk_engine(diamond_graph, RandomWalkConfig(walk_engine="csr"))
        assert isinstance(engine, PythonWalkEngine)
        walks = list(engine.iter_walks(seed=1))
        assert len(walks) == 100 * diamond_graph.num_nodes()

    def test_fallback_logs_a_warning(self, diamond_graph, monkeypatch, caplog):
        import logging

        import repro.graph.walk_engine as walk_engine_module

        def broken_snapshot(graph):
            raise MemoryError("48 exabytes please")

        monkeypatch.setattr(walk_engine_module, "csr_adjacency", broken_snapshot)
        with caplog.at_level(logging.WARNING, logger="repro.graph.walk_engine"):
            engine = make_walk_engine(diamond_graph, RandomWalkConfig(walk_engine="csr"))
        assert isinstance(engine, PythonWalkEngine)
        messages = [record.getMessage() for record in caplog.records]
        assert any(
            "falling back to the reference walk engine" in message
            and "MemoryError" in message
            and "48 exabytes please" in message
            for message in messages
        ), messages

    def test_unexpected_snapshot_error_propagates(self, diamond_graph, monkeypatch):
        # The fallback is for failure classes snapshot construction can
        # legitimately hit; an unknown error must not silently degrade the
        # fit to the slow engine.
        import repro.graph.walk_engine as walk_engine_module

        def buggy_snapshot(graph):
            raise RuntimeError("a bug, not a capacity limit")

        monkeypatch.setattr(walk_engine_module, "csr_adjacency", buggy_snapshot)
        with pytest.raises(RuntimeError, match="a bug"):
            make_walk_engine(diamond_graph, RandomWalkConfig(walk_engine="csr"))

    def test_invalid_batch_size_not_swallowed_by_fallback(self, diamond_graph):
        # Caller errors (bad batch_size) propagate instead of selecting the
        # reference engine behind the caller's back.
        with pytest.raises(ValueError, match="batch_size"):
            make_walk_engine(
                diamond_graph, RandomWalkConfig(walk_engine="csr"), batch_size=0
            )

    def test_reference_alias_selects_python_engine(self, diamond_graph):
        # "reference" names the step-at-a-time twin, as in every ENGINE_STAGES stage.
        engine = make_walk_engine(diamond_graph, RandomWalkConfig(walk_engine="reference"))
        assert isinstance(engine, PythonWalkEngine)

    def test_iter_walks_dispatches_on_config(self, diamond_graph):
        config = RandomWalkConfig(num_walks=2, walk_length=3, walk_engine="csr")
        walks = list(iter_walks(diamond_graph, config, seed=1))
        assert len(walks) == 2 * diamond_graph.num_nodes()

    def test_invalid_batch_size_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            CSRWalkEngine(diamond_graph, RandomWalkConfig(), batch_size=0)

    def test_engine_sees_mutations_after_creation(self, diamond_graph):
        # The engine must not freeze a stale snapshot: nodes added between
        # engine creation and walk generation are walkable.
        engine = CSRWalkEngine(diamond_graph, RandomWalkConfig(num_walks=2, walk_length=4))
        diamond_graph.add_node("late")
        diamond_graph.add_edge("late", "n0")
        walks = list(engine.iter_walks(seed=1))
        assert len(walks) == 2 * diamond_graph.num_nodes()
        assert any(w[0] == "late" for w in walks)

    def test_mutation_after_iter_walks_call_is_picked_up(self, diamond_graph):
        engine = CSRWalkEngine(diamond_graph, RandomWalkConfig(num_walks=1, walk_length=3))
        iterator = engine.iter_walks(seed=1)  # generator: snapshot not taken yet
        diamond_graph.add_node("later")
        diamond_graph.add_edge("later", "n1")
        walks = list(iterator)
        assert len(walks) == diamond_graph.num_nodes()
        assert any(w[0] == "later" for w in walks)


# ----------------------------------------------------------------------
# Missing start nodes warn instead of silently skipping
class TestStartNodeWarnings:
    @pytest.mark.parametrize("engine_name", ["reference", "csr"])
    def test_missing_start_nodes_warn(self, diamond_graph, engine_name):
        config = RandomWalkConfig(
            num_walks=1,
            walk_length=3,
            start_nodes=["n0", "ghost", "phantom"],
            walk_engine=engine_name,
        )
        with pytest.warns(RuntimeWarning, match="2 start node"):
            walks = generate_walks(diamond_graph, config, seed=1)
        # The known start node is still walked.
        assert len(walks) == 1
        assert walks[0][0] == "n0"

    def test_no_warning_when_all_starts_known(self, diamond_graph, recwarn):
        config = RandomWalkConfig(num_walks=1, walk_length=3, start_nodes=["n0", "n1"])
        generate_walks(diamond_graph, config, seed=1)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------------------
# Pipeline integration
def build_review_world():
    from repro.corpus.documents import TextCorpus
    from repro.corpus.table import Column, Table

    table = Table("movies", [Column("title"), Column("director"), Column("genre")])
    rows = [
        ("m1", "Silent Storm", "Nora Bergman", "thriller"),
        ("m2", "Golden Empire", "Oscar Leone", "drama"),
        ("m3", "Paper Moon Hour", "Helen Kaur", "comedy"),
    ]
    for row_id, title, director, genre in rows:
        table.add_record(row_id, title=title, director=director, genre=genre)
    reviews = TextCorpus(name="reviews")
    reviews.add_text("r1", "Silent Storm is a tense thriller directed by Bergman")
    reviews.add_text("r2", "Golden Empire sees Leone direct a sweeping drama")
    reviews.add_text("r3", "Paper Moon Hour is a gentle comedy from Kaur")
    gold = {"r1": {"m1"}, "r2": {"m2"}, "r3": {"m3"}}
    return reviews, table, gold


class TestPipelineIntegration:
    def test_fit_records_engine_and_timings(self):
        reviews, table, _gold = build_review_world()
        pipeline = TDMatch(TDMatchConfig.fast(), seed=11)
        pipeline.fit(reviews, table)
        assert pipeline.report()["walks"]["engine"] == "csr"
        timings = pipeline.timings.as_dict()
        assert "walks" in timings and "word2vec" in timings
        assert timings["walks"] >= 0.0

    def test_report_names_the_engine_that_ran_after_a_fallback(self, monkeypatch):
        import repro.graph.walk_engine as walk_engine_module

        def broken_snapshot(graph):
            raise MemoryError("snapshot unavailable")

        monkeypatch.setattr(walk_engine_module, "csr_adjacency", broken_snapshot)
        reviews, table, _gold = build_review_world()
        pipeline = TDMatch(TDMatchConfig.fast(), seed=11).fit(reviews, table)
        report = pipeline.report()
        assert report["engines"]["walks"] == "csr"  # what was asked for
        assert report["walks"]["engine"] == "reference"  # what ran

    def test_python_engine_pipeline_matches_quality(self):
        reviews, table, gold = build_review_world()
        config = TDMatchConfig.fast(walks__walk_engine="reference")
        pipeline = TDMatch(config, seed=11)
        pipeline.fit(reviews, table)
        assert pipeline.report()["walks"]["engine"] == "reference"
        rankings = pipeline.match(k=2)
        hits = sum(1 for doc, gold_ids in gold.items() if rankings[doc].ids(2)[0] in gold_ids)
        assert hits >= 2
