"""Tests for the bulk compression engine and the compression bugfix sweep.

Covers the CSR BFS primitives (``bfs_levels``, ``shortest_path_dag_union``,
``multi_source_dag_union``), hypothesis parity of bulk-vs-reference MSP/SSP
compression (identical compressed node *list*, edge set, metadata
connectivity, and :class:`CompressionResult` ratios on random graphs), the
metadata-connectivity guarantee on multi-component graphs (the
sampled-target regression), the iterative ``all_shortest_paths`` backtrack
(no ``RecursionError`` on chain graphs), the live-degree SSuM rewrite
against a recomputed oracle, the seeded end-to-end ``TDMatch.match``
identity with compression enabled across both engines, and the CLI flag.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse  # noqa: F401 -- imported before any tracemalloc window opens
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.config import CompressionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.graph.compression import (
    COMPRESSION_ENGINES,
    _merge_identical_neighborhoods,
    msp_compress,
    ssp_compress,
    ssum_compress,
)
from repro.graph.csr import (
    bfs_levels,
    build_csr_from_edges,
    csr_adjacency,
    multi_source_dag_union,
    shortest_path_dag_union,
)
from repro.graph.graph import MatchGraph, NodeKind
from repro.utils.rng import ensure_rng

# Large enough that the reference engine's path enumeration is never
# truncated — the regime in which bulk and reference are exactly equal.
UNBOUNDED = 10**6


# ----------------------------------------------------------------------
# Graph construction helpers
def build_graph(n_first, n_second, n_data, edges, n_shared=0):
    """Random test graph; ``n_shared`` labels are metadata on BOTH sides.

    Shared labels model the builder's corpus-``"both"`` promotion (real
    table↔table scenarios produce unqualified ``row::<id>`` labels on both
    sides), added twice so the promotion path itself runs.
    """
    g = MatchGraph()
    shared = [f"s{i}" for i in range(n_shared)]
    first = [f"t{i}" for i in range(n_first)] + shared
    second = [f"p{i}" for i in range(n_second)] + shared
    data = [f"d{i}" for i in range(n_data)]
    for label in first:
        g.add_node(label, kind=NodeKind.METADATA, corpus="first", role="tuple")
    for label in second:
        g.add_node(label, kind=NodeKind.METADATA, corpus="second", role="document")
    for label in data:
        g.add_node(label, kind=NodeKind.DATA)
    labels = first + [f"p{i}" for i in range(n_second)] + data
    for u, v in edges:
        iu, iv = u % len(labels), v % len(labels)
        if iu != iv:
            g.add_edge(labels[iu], labels[iv])
    return g, first, second


@st.composite
def random_graph(draw):
    n_first = draw(st.integers(min_value=1, max_value=3))
    n_second = draw(st.integers(min_value=1, max_value=3))
    n_data = draw(st.integers(min_value=0, max_value=8))
    n_shared = draw(st.integers(min_value=0, max_value=2))
    n_nodes = n_first + n_second + n_data + n_shared
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=n_nodes - 1),
            ),
            max_size=2 * n_nodes,
        )
    )
    return build_graph(n_first, n_second, n_data, edges, n_shared=n_shared)


@st.composite
def dag_union_groups(draw):
    """A random graph in two disconnected parts plus ``(source, targets)`` groups.

    The first part may carry a path backbone, so targets sit at very
    different depths and groups retire at different levels.  Target lists
    may repeat a node, contain the group's own source, or be empty.
    """
    n = draw(st.integers(min_value=2, max_value=16))
    split = draw(st.integers(min_value=1, max_value=n))
    edges = set()
    if draw(st.booleans()):
        edges.update((i, i + 1) for i in range(split - 1))
    for lo, hi in ((0, split), (split, n)):
        if hi - lo < 2:
            continue
        part = st.integers(min_value=lo, max_value=hi - 1)
        for a, b in draw(st.lists(st.tuples(part, part), max_size=2 * (hi - lo))):
            if a != b:
                edges.add((min(a, b), max(a, b)))
    node = st.integers(min_value=0, max_value=n - 1)
    sources = draw(st.lists(node, min_size=1, max_size=6))
    targets = []
    for source in sources:
        group = draw(st.lists(node, max_size=4))
        if group and draw(st.booleans()):
            group.append(group[0])
        if draw(st.booleans()):
            group.append(source)
        targets.append(group)
    return n, sorted(edges), sources, targets


def canonical_edges(edge_u, edge_v):
    return {(min(a, b), max(a, b)) for a, b in zip(edge_u.tolist(), edge_v.tolist())}


def example_graph():
    """The Figure 4 style graph used across the compression tests."""
    g = MatchGraph()
    for label in ("t1", "t2"):
        g.add_node(label, kind=NodeKind.METADATA, corpus="first", role="tuple")
    for label in ("p1", "p2"):
        g.add_node(label, kind=NodeKind.METADATA, corpus="second", role="document")
    for term in ("willis", "shyamalan", "tarantino", "thriller", "drama", "comedy", "pg"):
        g.add_node(term, kind=NodeKind.DATA)
    for u, v in [
        ("t1", "willis"), ("t1", "shyamalan"), ("t1", "thriller"), ("t1", "pg"),
        ("t2", "willis"), ("t2", "tarantino"), ("t2", "drama"),
        ("p1", "willis"), ("p1", "comedy"),
        ("p2", "shyamalan"), ("p2", "thriller"),
    ]:
        g.add_edge(u, v)
    return g


# ----------------------------------------------------------------------
# CSR BFS primitives
class TestBfsPrimitives:
    def path_csr(self, length=6):
        g = MatchGraph()
        labels = [f"n{i}" for i in range(length)]
        for label in labels:
            g.add_node(label)
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        return g, csr_adjacency(g)

    def test_bfs_levels_path(self):
        _g, csr = self.path_csr(6)
        levels = bfs_levels(csr, 0)
        assert levels.tolist() == [0, 1, 2, 3, 4, 5]

    def test_bfs_levels_unreachable(self):
        g = MatchGraph()
        for label in ("a", "b", "c"):
            g.add_node(label)
        g.add_edge("a", "b")
        csr = csr_adjacency(g)
        levels = bfs_levels(csr, 0)
        assert levels[csr.ids["c"]] == -1

    def test_bfs_levels_early_stop_any_still_complete(self):
        # stop="any" must finish the level it stops at.
        g = MatchGraph()
        for label in ("s", "a", "b", "t1", "t2"):
            g.add_node(label)
        for u, v in [("s", "a"), ("s", "b"), ("a", "t1"), ("b", "t2")]:
            g.add_edge(u, v)
        csr = csr_adjacency(g)
        targets = np.array([csr.ids["t1"], csr.ids["t2"]])
        levels = bfs_levels(csr, csr.ids["s"], targets=targets, stop="any")
        # Both targets live at level 2; the full level is assigned.
        assert levels[targets].tolist() == [2, 2]

    def test_bfs_levels_invalid_stop(self):
        _g, csr = self.path_csr(3)
        with pytest.raises(ValueError):
            bfs_levels(csr, 0, stop="never")

    def test_dag_union_matches_all_shortest_paths(self):
        g = example_graph()
        csr = csr_adjacency(g)
        paths = g.all_shortest_paths("t2", "p2", limit=UNBOUNDED)
        expected_nodes = {node for path in paths for node in path}
        expected_edges = {
            tuple(sorted(e)) for path in paths for e in zip(path, path[1:])
        }
        nodes, eu, ev = shortest_path_dag_union(
            csr, csr.ids["t2"], np.array([csr.ids["p2"]])
        )
        got_nodes = {csr.labels[i] for i in nodes.tolist()}
        got_edges = {
            tuple(sorted((csr.labels[a], csr.labels[b])))
            for a, b in zip(eu.tolist(), ev.tolist())
        }
        assert got_nodes == expected_nodes
        assert got_edges == expected_edges

    def test_dag_union_unreachable_target_is_empty(self):
        g = MatchGraph()
        for label in ("a", "b", "c"):
            g.add_node(label)
        g.add_edge("a", "b")
        csr = csr_adjacency(g)
        nodes, eu, ev = shortest_path_dag_union(csr, 0, np.array([csr.ids["c"]]))
        assert nodes.size == 0 and eu.size == 0 and ev.size == 0

    def test_dag_union_source_equals_target(self):
        _g, csr = self.path_csr(4)
        nodes, eu, ev = shortest_path_dag_union(csr, 2, np.array([2]))
        assert nodes.tolist() == [2]
        assert eu.size == 0 and ev.size == 0

    def test_multi_source_matches_single_source(self):
        g = example_graph()
        csr = csr_adjacency(g)
        sources = [csr.ids["t1"], csr.ids["t2"]]
        targets = [
            np.array([csr.ids["p1"], csr.ids["p2"]]),
            np.array([csr.ids["p1"]]),
        ]
        nodes, eu, ev = multi_source_dag_union(csr, np.array(sources), targets)
        expected_nodes = set()
        expected_edges = set()
        for source, target_ids in zip(sources, targets):
            n1, u1, v1 = shortest_path_dag_union(csr, source, target_ids)
            expected_nodes.update(n1.tolist())
            expected_edges.update(
                (min(a, b), max(a, b)) for a, b in zip(u1.tolist(), v1.tolist())
            )
        assert set(nodes.tolist()) == expected_nodes
        got_edges = {(min(a, b), max(a, b)) for a, b in zip(eu.tolist(), ev.tolist())}
        assert got_edges == expected_edges

    def test_multi_source_chunking_is_invariant(self):
        g = example_graph()
        csr = csr_adjacency(g)
        sources = np.array([csr.ids["t1"], csr.ids["t2"], csr.ids["p1"]])
        targets = [
            np.array([csr.ids["p2"]]),
            np.array([csr.ids["p1"], csr.ids["p2"]]),
            np.array([csr.ids["t1"]]),
        ]
        whole = multi_source_dag_union(csr, sources, targets)
        # max_state_entries below n forces one-group chunks.
        chunked = multi_source_dag_union(csr, sources, targets, max_state_entries=1)
        assert set(whole[0].tolist()) == set(chunked[0].tolist())
        canonical = lambda u, v: {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}  # noqa: E731
        assert canonical(whole[1], whole[2]) == canonical(chunked[1], chunked[2])

    @settings(max_examples=80, deadline=None)
    @given(spec=dag_union_groups())
    def test_multi_source_equals_per_source_union(self, spec):
        n, edges, sources, targets = spec
        csr = build_csr_from_edges(
            [str(i) for i in range(n)],
            np.array([u for u, _ in edges], dtype=np.int64),
            np.array([v for _, v in edges], dtype=np.int64),
        )
        expected_nodes, expected_edges = set(), set()
        for source, target_ids in zip(sources, targets):
            nodes, eu, ev = shortest_path_dag_union(
                csr, source, np.array(target_ids, dtype=np.int64)
            )
            expected_nodes.update(nodes.tolist())
            expected_edges.update(canonical_edges(eu, ev))
        for max_state_entries in (1, 2 * n, 4_000_000):
            nodes, eu, ev = multi_source_dag_union(
                csr,
                np.array(sources, dtype=np.int64),
                [np.array(t, dtype=np.int64) for t in targets],
                max_state_entries=max_state_entries,
            )
            assert set(nodes.tolist()) == expected_nodes
            assert canonical_edges(eu, ev) == expected_edges
            directed = list(zip(eu.tolist(), ev.tolist()))
            assert len(set(directed)) == len(directed)

    def test_multi_source_memory_is_bounded(self):
        # K(20, 1000): every leaf-to-leaf shortest path crosses all 20
        # hubs, so one group's level-2 frontier expansion touches all
        # 20,000 hub-row entries.  Gathering those rows per group cost
        # ~200 MB here; the boolean-product sweep needs a few MB.
        hubs, leaves = 20, 1000
        hub_ids = np.repeat(np.arange(hubs, dtype=np.int64), leaves)
        leaf_ids = hubs + np.tile(np.arange(leaves, dtype=np.int64), hubs)
        csr = build_csr_from_edges([str(i) for i in range(hubs + leaves)], hub_ids, leaf_ids)
        rng = np.random.default_rng(0)
        sources = hubs + rng.choice(leaves, size=200, replace=False)
        targets = [hubs + rng.choice(leaves, size=3, replace=False) for _ in sources]
        tracemalloc.start()
        try:
            nodes, _eu, _ev = multi_source_dag_union(csr, sources, targets)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(range(hubs)) <= set(nodes.tolist())
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ----------------------------------------------------------------------
# Iterative all_shortest_paths (RecursionError regression)
class TestIterativeBacktrack:
    def test_long_chain_does_not_recurse(self):
        length = 2000  # far beyond the default recursion limit
        g = MatchGraph()
        labels = [f"n{i}" for i in range(length)]
        for label in labels:
            g.add_node(label)
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        paths = g.all_shortest_paths(labels[0], labels[-1])
        assert len(paths) == 1
        assert paths[0] == labels

    def test_enumeration_matches_limit_semantics(self):
        # Diamond of diamonds: 4 shortest paths; the limit truncates.
        g = MatchGraph()
        for label in ("s", "a", "b", "m", "c", "d", "t"):
            g.add_node(label)
        for u, v in [
            ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
            ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
        ]:
            g.add_edge(u, v)
        paths = g.all_shortest_paths("s", "t", limit=UNBOUNDED)
        assert len(paths) == 4
        assert all(len(path) == 5 for path in paths)
        assert len(g.all_shortest_paths("s", "t", limit=3)) == 3


# ----------------------------------------------------------------------
# Engine parity
class TestCompressionEngineParity:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_spec=random_graph(),
        beta=st.sampled_from([0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_msp_parity(self, graph_spec, beta, seed):
        graph, first, second = graph_spec
        reference = msp_compress(
            graph, first, second, beta=beta, seed=seed,
            max_paths_per_pair=UNBOUNDED, engine="reference",
        )
        bulk = msp_compress(
            graph, first, second, beta=beta, seed=seed,
            max_paths_per_pair=UNBOUNDED, engine="bulk",
        )
        # Node LIST (not just set): canonical order is what keeps CSR node
        # ids — and therefore seeded downstream walks — engine-independent.
        assert reference.graph.nodes() == bulk.graph.nodes()
        assert set(reference.graph.edges()) == set(bulk.graph.edges())
        assert reference.graph.num_edges() == bulk.graph.num_edges()
        assert reference.nodes_before == bulk.nodes_before
        assert reference.edges_before == bulk.edges_before
        assert reference.node_ratio == bulk.node_ratio
        assert reference.edge_ratio == bulk.edge_ratio
        for label in reference.graph.nodes():
            assert reference.graph.node_info(label) == bulk.graph.node_info(label)

    @settings(max_examples=60, deadline=None)
    @given(
        graph_spec=random_graph(),
        beta=st.sampled_from([0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ssp_parity(self, graph_spec, beta, seed):
        graph, _first, _second = graph_spec
        reference = ssp_compress(
            graph, beta=beta, seed=seed, max_paths_per_pair=UNBOUNDED, engine="reference"
        )
        bulk = ssp_compress(
            graph, beta=beta, seed=seed, max_paths_per_pair=UNBOUNDED, engine="bulk"
        )
        assert reference.graph.nodes() == bulk.graph.nodes()
        assert set(reference.graph.edges()) == set(bulk.graph.edges())
        assert reference.node_ratio == bulk.node_ratio
        assert reference.edge_ratio == bulk.edge_ratio

    @settings(max_examples=40, deadline=None)
    @given(
        graph_spec=random_graph(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        engine=st.sampled_from(COMPRESSION_ENGINES),
    )
    def test_metadata_connectivity_guarantee(self, graph_spec, seed, engine):
        # Every metadata node with a reachable other-side partner in the
        # original graph must end up connected in the compressed graph.
        graph, first, second = graph_spec
        result = msp_compress(
            graph, first, second, beta=0.3, seed=seed,
            max_paths_per_pair=UNBOUNDED, engine=engine,
        )
        for side, other in ((first, second), (second, first)):
            for label in side:
                component = graph.connected_component(label)
                reachable = any(o in component for o in other if o != label)
                assert result.graph.has_node(label)
                if reachable:
                    assert result.graph.degree(label) >= 1, (
                        f"{label} reachable but left bare by {engine}"
                    )

    def test_invalid_engine(self):
        g = example_graph()
        with pytest.raises(ValueError):
            msp_compress(g, ["t1"], ["p1"], engine="turbo")
        with pytest.raises(ValueError):
            ssp_compress(g, engine="turbo")

    def test_deterministic_given_seed_both_engines(self):
        g = example_graph()
        for engine in COMPRESSION_ENGINES:
            r1 = msp_compress(g, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=7, engine=engine)
            r2 = msp_compress(g, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=7, engine=engine)
            assert r1.graph.nodes() == r2.graph.nodes()
            assert sorted(r1.graph.edges()) == sorted(r2.graph.edges())


# ----------------------------------------------------------------------
# Metadata-connectivity regression (the sampled-target bug)
class TestMultiComponentConnectivity:
    def multi_component_graph(self):
        # Component A: t1 - x - p1; component B: t2 - y - p2.  The old code
        # sampled ONE other-side target; when it drew the wrong component's
        # node the metadata node was silently left bare.
        g = MatchGraph()
        for label, corpus, role in [
            ("t1", "first", "tuple"), ("t2", "first", "tuple"),
            ("p1", "second", "document"), ("p2", "second", "document"),
        ]:
            g.add_node(label, kind=NodeKind.METADATA, corpus=corpus, role=role)
        for label in ("x", "y"):
            g.add_node(label, kind=NodeKind.DATA)
        for u, v in [("t1", "x"), ("x", "p1"), ("t2", "y"), ("y", "p2")]:
            g.add_edge(u, v)
        return g

    @pytest.mark.parametrize("engine", COMPRESSION_ENGINES)
    def test_every_reachable_metadata_node_connected(self, engine):
        g = self.multi_component_graph()
        # Every seed must connect every metadata node: the guarantee no
        # longer depends on which target the rng happened to draw.
        for seed in range(20):
            result = msp_compress(
                g, ["t1", "t2"], ["p1", "p2"], beta=0.25, seed=seed, engine=engine
            )
            for label in ("t1", "t2", "p1", "p2"):
                assert result.graph.degree(label) >= 1, (engine, seed, label)

    @pytest.mark.parametrize("engine", COMPRESSION_ENGINES)
    def test_both_sides_metadata_node_still_connected(self, engine):
        # Regression: a label promoted to corpus "both" sits in its own
        # other-side target list; the bulk connectivity BFS used to stop at
        # the level-0 self-target and keep the node bare.
        g = MatchGraph()
        g.add_node("t9", kind=NodeKind.METADATA, corpus="first", role="tuple")
        g.add_node("shared", kind=NodeKind.METADATA, corpus="first", role="tuple")
        g.add_node("shared", kind=NodeKind.METADATA, corpus="second", role="tuple")
        g.add_node("p1", kind=NodeKind.METADATA, corpus="second", role="document")
        g.add_node("d0", kind=NodeKind.DATA)
        g.add_node("d1", kind=NodeKind.DATA)
        g.add_edge("t9", "d0")
        g.add_edge("d0", "p1")
        g.add_edge("shared", "d1")
        g.add_edge("d1", "p1")
        for seed in range(10):
            result = msp_compress(
                g, ["t9", "shared"], ["p1", "shared"], beta=0.2, seed=seed, engine=engine
            )
            assert result.graph.degree("shared") >= 1, (engine, seed)

    @pytest.mark.parametrize("engine", COMPRESSION_ENGINES)
    def test_truly_isolated_metadata_kept_bare(self, engine):
        g = self.multi_component_graph()
        g.add_node("t_orphan", kind=NodeKind.METADATA, corpus="first", role="tuple")
        result = msp_compress(
            g, ["t1", "t2", "t_orphan"], ["p1", "p2"], beta=0.5, seed=3, engine=engine
        )
        assert result.graph.has_node("t_orphan")
        assert result.graph.degree("t_orphan") == 0


# ----------------------------------------------------------------------
# SSuM live-degree rewrite
class TestSsumLiveSelection:
    def test_phase1_merges_identical_groups(self):
        g = MatchGraph()
        g.add_node("m1", kind=NodeKind.METADATA)
        g.add_node("m2", kind=NodeKind.METADATA)
        for label in ("a", "b", "c", "d"):
            g.add_node(label, kind=NodeKind.DATA)
        for u in ("a", "b", "c"):
            g.add_edge(u, "m1")
            g.add_edge(u, "m2")
        g.add_edge("d", "m1")
        merged = _merge_identical_neighborhoods(g)
        assert merged == 2  # b and c absorbed into a
        assert g.has_node("d")  # different neighbourhood, untouched

    @settings(max_examples=30, deadline=None)
    @given(graph_spec=random_graph())
    def test_phase1_leaves_no_identical_pair(self, graph_spec):
        # The documented invariant: after the pass, no two surviving data
        # nodes share their entire neighbourhood (the one-shot grouping
        # could leave such pairs when guards skipped stale members).
        graph, _first, _second = graph_spec
        _merge_identical_neighborhoods(graph)
        signatures = [tuple(sorted(graph.neighbors(label))) for label in graph.data_nodes()]
        assert len(signatures) == len(set(signatures))
        # And the pass is idempotent: a second run finds nothing to merge.
        assert _merge_identical_neighborhoods(graph) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        graph_spec=random_graph(),
        ratio=st.sampled_from([0.2, 0.5, 0.8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_phase2_matches_recomputed_oracle(self, graph_spec, ratio, seed):
        graph, _first, _second = graph_spec
        result = ssum_compress(graph, target_ratio=ratio, seed=seed)

        # Oracle: same phase 1, then a naive recompute-per-step phase 2 —
        # always drop the live lowest-degree data node (random seeded rank
        # breaking ties), never below the floor.
        oracle = graph.copy()
        _merge_identical_neighborhoods(oracle)
        rng = ensure_rng(seed)
        target_data = max(4, int(ratio * len(graph.data_nodes())))
        data = oracle.data_nodes()
        ranks = {label: int(r) for label, r in zip(data, rng.permutation(len(data)))}
        while len(oracle.data_nodes()) > target_data:
            label = min(oracle.data_nodes(), key=lambda v: (oracle.degree(v), ranks[v]))
            oracle.remove_node(label)

        assert sorted(result.graph.nodes()) == sorted(oracle.nodes())

    def test_live_degree_drop_order(self):
        # Hub h starts with the HIGHEST degree; leaves l0..l3 have degree 1.
        # Removing the leaves drains h's live degree to 0, so h must be
        # dropped before the well-connected clique nodes — the stale
        # one-shot degree sort would have dropped a clique node instead.
        g = MatchGraph()
        g.add_node("m1", kind=NodeKind.METADATA)
        for label in ("h", "l0", "l1", "l2", "l3", "c0", "c1", "c2", "c3"):
            g.add_node(label, kind=NodeKind.DATA)
        for leaf in ("l0", "l1", "l2", "l3"):
            g.add_edge("h", leaf)
        clique = ("c0", "c1", "c2", "c3")
        for i, u in enumerate(clique):
            g.add_edge(u, "m1")
            for v in clique[i + 1:]:
                g.add_edge(u, v)
        result = ssum_compress(g, target_ratio=0.45, seed=0)  # keep 4 of 9
        survivors = set(result.graph.data_nodes())
        assert survivors == set(clique)

    def test_heap_consistency_many_seeds(self):
        g = example_graph()
        for seed in range(10):
            result = ssum_compress(g, target_ratio=0.5, seed=seed)
            for label in ("t1", "t2", "p1", "p2"):
                assert result.graph.has_node(label)


# ----------------------------------------------------------------------
# End-to-end pipeline identity and notes
class TestPipelineCompressionEngines:
    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_scenario(
            "imdb_wt",
            size=ScenarioSize(n_entities=12, n_queries=16, n_distractors=6),
            seed=5,
        )

    def run(self, scenario, engine, method="msp"):
        config = TDMatchConfig.for_text_to_data()
        config.walks.num_walks = 4
        config.walks.walk_length = 8
        config.word2vec.vector_size = 24
        config.word2vec.epochs = 1
        config.compression = CompressionConfig(
            enabled=True,
            method=method,
            ratio=0.5,
            max_paths_per_pair=UNBOUNDED,
            engine=engine,
        )
        pipeline = TDMatch(config, seed=13)
        pipeline.fit(scenario.first, scenario.second)
        return pipeline

    @pytest.mark.parametrize("method", ["msp", "ssp"])
    def test_seeded_match_identity_across_engines(self, scenario, method):
        reference = self.run(scenario, "reference", method=method)
        bulk = self.run(scenario, "bulk", method=method)
        assert reference.graph.nodes() == bulk.graph.nodes()
        assert sorted(reference.graph.edges()) == sorted(bulk.graph.edges())
        assert reference.match(k=8).as_id_lists() == bulk.match(k=8).as_id_lists()

    def test_compression_engine_note_recorded(self, scenario):
        pipeline = self.run(scenario, "bulk")
        assert pipeline.report()["compression"]["engine"] == "bulk"
        reference = self.run(scenario, "reference")
        assert reference.report()["compression"]["engine"] == "reference"

    def test_compression_stage_still_replaces_graph(self, scenario):
        pipeline = self.run(scenario, "bulk")
        assert pipeline.state.compression is not None
        assert pipeline.graph is pipeline.state.compression.graph


class TestCliCompressionEngineFlag:
    ARGS = [
        "--scenario", "imdb_wt", "--size", "tiny", "--k", "5",
        "--num-walks", "4", "--walk-length", "8", "--vector-size", "32",
        "--epochs", "1", "--compression", "msp",
    ]

    def test_bulk_default(self, capsys):
        assert cli.main(self.ARGS) == 0
        assert "engine=bulk" in capsys.readouterr().out

    def test_non_engine_method_runs(self, capsys):
        args = [a for a in self.ARGS]
        args[args.index("msp")] = "ssum"
        assert cli.main(args) == 0
        assert "compression: ssum" in capsys.readouterr().out
