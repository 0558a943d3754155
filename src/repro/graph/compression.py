"""Graph compression (Section III-B of the paper).

The paper proposes **MSP** (Metadata Shortest Path, Algorithm 3): sample
pairs of metadata nodes from the two corpora, compute all shortest paths
between them, and keep the union of the nodes and edges on those paths; the
number of iterations is β·|V|.  Every metadata node — even if never sampled —
is finally connected to the compressed graph through at least one shortest
path so that no object to match is lost.

Baselines implemented for Table VIII and the related-work comparison:

* **SSP** — the original shortest-path sampling over *random* node pairs
  (not restricted to metadata nodes).
* **SSuM-style** — a task-agnostic summarizer: greedy grouping of
  structurally similar low-degree nodes plus edge sparsification down to a
  target ratio of the input size.
* **random node / edge sampling** — the classic baselines from the graph
  sampling literature.

MSP and SSP are implemented twice behind an ``engine`` switch:

* ``"bulk"`` (default) — the sampled pairs are grouped by source, and all
  groups advance in lock-step through one multi-source BFS over the cached
  CSR snapshot (:func:`repro.graph.csr.multi_source_dag_union`): every BFS
  level, forward and backward, is one boolean product of the shared
  adjacency matrix with a ``(nodes, groups)`` frontier matrix, and the
  backward sweep takes the union of the shortest-path DAG for every target
  of every group at once, so no individual path is ever materialised.
* ``"reference"`` — the original loop: one
  :meth:`MatchGraph.all_shortest_paths` enumeration per sampled pair.

Both engines sample identical pairs from the same seed and build the
compressed graph with the same canonical node order (the source graph's
insertion order), so their compressed node *lists* and edge sets are
identical whenever the reference enumeration is not truncated (i.e.
``max_paths_per_pair`` is at least the number of shortest paths of every
sampled pair; the bulk engine always computes the exact union).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import (
    bfs_levels,
    csr_adjacency,
    multi_source_dag_union,
    shortest_path_dag_union,
)
from repro.graph.graph import MatchGraph, dedup_edge_ids
from repro.utils.rng import ensure_rng

COMPRESSION_ENGINES = ("bulk", "reference")


@dataclass
class CompressionResult:
    """A compressed graph together with size statistics.

    ``engine`` names the MSP/SSP engine that ran; the other methods have
    one implementation and leave it ``None``.
    """

    graph: MatchGraph
    method: str
    nodes_before: int
    edges_before: int
    engine: Optional[str] = None
    nodes_after: int = field(init=False)
    edges_after: int = field(init=False)

    def __post_init__(self) -> None:
        # The sizes as compressed: incremental deltas later grow ``graph``
        # in place, since it becomes the pipeline's graph.
        self.nodes_after = self.graph.num_nodes()
        self.edges_after = self.graph.num_edges()

    @property
    def node_ratio(self) -> float:
        return self.nodes_after / self.nodes_before if self.nodes_before else 1.0

    @property
    def edge_ratio(self) -> float:
        return self.edges_after / self.edges_before if self.edges_before else 1.0


def _copy_node(source: MatchGraph, target: MatchGraph, label: str) -> None:
    info = source.node_info(label)
    target.add_node(label, kind=info.kind, corpus=info.corpus, role=info.role)


# ----------------------------------------------------------------------
# Shared engine machinery
def _check_engine(engine: str) -> None:
    if engine not in COMPRESSION_ENGINES:
        raise ValueError(
            f"unknown compression engine {engine!r}; valid: {sorted(COMPRESSION_ENGINES)}"
        )


def _sample_pair_indices(
    rng, n_first: int, n_second: int, iterations: int
) -> List[Tuple[int, int]]:
    """The β·|V| sampled index pairs, drawn exactly as the reference loop.

    Both engines consume the generator with the same scalar-draw sequence
    (first index, then second index, per iteration), so a shared seed yields
    the same pair sequence regardless of engine.
    """
    pairs = []
    for _ in range(iterations):
        i = int(rng.integers(0, n_first))
        j = int(rng.integers(0, n_second))
        pairs.append((i, j))
    return pairs


class _UnionCollector:
    """Accumulates the node and canonical edge label sets of a compression.

    The compressed :class:`MatchGraph` is only materialised at the end (via
    :func:`_build_compressed`), in the source graph's node insertion order —
    which makes the compressed graph, and therefore the CSR ids the walk
    engine derives from it, independent of the order in which paths were
    discovered (and of the engine that discovered them).
    """

    def __init__(self) -> None:
        self.nodes: Set[str] = set()
        self.edges: Set[Tuple[str, str]] = set()
        self.connected: Set[str] = set()

    def add_path(self, path: Sequence[str]) -> None:
        self.nodes.update(path)
        for u, v in zip(path, path[1:]):
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge not in self.edges:
                self.edges.add(edge)
                self.connected.add(u)
                self.connected.add(v)

    def add_node(self, label: str) -> None:
        self.nodes.add(label)


def _build_compressed(
    graph: MatchGraph, nodes: Set[str], edges: Set[Tuple[str, str]]
) -> MatchGraph:
    """Materialise the compressed graph in canonical (source) node order."""
    compressed = MatchGraph()
    ordered = [label for label in graph.nodes() if label in nodes]
    infos = [graph.node_info(label) for label in ordered]
    compressed.add_nodes_bulk(
        ordered,
        kind=[info.kind for info in infos],
        corpus=[info.corpus for info in infos],
        role=[info.role for info in infos],
    )
    if edges:
        edge_list = sorted(edges)
        compressed.add_edges_bulk(
            [u for u, _v in edge_list],
            [v for _u, v in edge_list],
            assume_unique=True,
        )
    return compressed


# ----------------------------------------------------------------------
# MSP — Algorithm 3
def msp_compress(
    graph: MatchGraph,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    beta: float = 0.5,
    seed=None,
    max_paths_per_pair: int = 16,
    engine: str = "bulk",
    parallel=None,
) -> CompressionResult:
    """Metadata Shortest Path compression (Algorithm 3).

    Parameters
    ----------
    graph:
        The (possibly expanded) graph to compress.
    first_metadata / second_metadata:
        Metadata-node labels of the two corpora; pairs are sampled across
        the two sets.
    beta:
        Compression ratio — the number of sampled pairs is ``beta *
        graph.num_nodes()``.
    seed:
        Seed / generator for pair sampling.
    max_paths_per_pair:
        Cap on the number of shortest paths enumerated per sampled pair by
        the reference engine.  The bulk engine takes the exact union of the
        shortest-path DAG without enumerating paths, so the cap does not
        apply to it (it behaves like an unbounded cap).
    engine:
        ``"bulk"`` (multi-source CSR BFS, default) or ``"reference"``
        (per-pair path enumeration).
    parallel:
        Optional :class:`repro.parallel.ParallelConfig`; when it is
        enabled, the bulk engine's DAG-union sweep shards across worker
        processes (output-identical to the serial sweep).
        The reference engine ignores it.
    """
    if not 0 < beta:
        raise ValueError("beta must be positive")
    _check_engine(engine)
    first_metadata = [m for m in first_metadata if graph.has_node(m)]
    second_metadata = [m for m in second_metadata if graph.has_node(m)]
    if not first_metadata or not second_metadata:
        raise ValueError("both corpora must contribute at least one metadata node")

    rng = ensure_rng(seed)
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()
    iterations = max(1, int(beta * nodes_before))
    pairs = _sample_pair_indices(rng, len(first_metadata), len(second_metadata), iterations)

    if engine == "bulk":
        compressed = _msp_bulk(graph, first_metadata, second_metadata, pairs, parallel=parallel)
    else:
        compressed = _msp_reference(
            graph, first_metadata, second_metadata, pairs, max_paths_per_pair
        )
    return CompressionResult(
        graph=compressed, method=f"msp({beta})", nodes_before=nodes_before,
        edges_before=edges_before, engine=engine,
    )


def _msp_reference(
    graph: MatchGraph,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    pairs: Sequence[Tuple[int, int]],
    max_paths_per_pair: int,
) -> MatchGraph:
    collector = _UnionCollector()
    for i, j in pairs:
        paths = graph.all_shortest_paths(
            first_metadata[i], second_metadata[j], limit=max_paths_per_pair
        )
        for path in paths:
            collector.add_path(path)
    _ensure_metadata_connected_reference(
        graph, collector, first_metadata, second_metadata, max_paths_per_pair
    )
    return _build_compressed(graph, collector.nodes, collector.edges)


def _grouped_dag_union(csr, by_source: Dict[int, Set[int]], parallel=None):
    """Run the batched DAG-union sweep over a ``{source: targets}`` grouping.

    ``parallel`` (a :class:`repro.parallel.ParallelConfig`) shards the sweep
    across worker processes when the parallel layer is enabled; the
    downstream masks and ``dedup_edge_ids`` make the result order- and
    duplicate-insensitive, so the sharded sweep is output-identical.
    """
    if parallel is not None and parallel.enabled:
        # Imported lazily: repro.parallel.compression imports repro.graph.csr.
        from repro.parallel.compression import parallel_grouped_dag_union

        return parallel_grouped_dag_union(csr, by_source, parallel)
    sources = sorted(by_source)
    return multi_source_dag_union(
        csr,
        np.array(sources, dtype=np.int64),
        [np.fromiter(by_source[s], dtype=np.int64, count=len(by_source[s])) for s in sources],
    )


def _union_to_label_sets(csr, node_mask: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray):
    """Decode an id-space union (with duplicate edges) into label sets."""
    nodes = {csr.labels[i] for i in np.flatnonzero(node_mask)}
    edges: Set[Tuple[str, str]] = set()
    if edge_u.size:
        lo, hi = dedup_edge_ids(edge_u, edge_v, csr.num_nodes)
        labels = csr.labels
        for a, b in zip(lo.tolist(), hi.tolist()):
            u, v = labels[a], labels[b]
            edges.add((u, v) if u < v else (v, u))
    return nodes, edges


def _msp_bulk(
    graph: MatchGraph,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    pairs: Sequence[Tuple[int, int]],
    parallel=None,
) -> MatchGraph:
    csr = csr_adjacency(graph)
    first_ids = csr.encode(first_metadata).astype(np.int64)
    second_ids = csr.encode(second_metadata).astype(np.int64)

    # Group the sampled pairs by source node so one BFS sweep serves every
    # pair sharing that endpoint (for MSP the number of distinct sources is
    # bounded by |first_metadata|, not by the β·|V| iteration count).
    by_source: Dict[int, Set[int]] = {}
    for i, j in pairs:
        by_source.setdefault(int(first_ids[i]), set()).add(int(second_ids[j]))

    n = csr.num_nodes
    node_mask = np.zeros(n, dtype=bool)
    connected_mask = np.zeros(n, dtype=bool)
    edge_u_chunks: List[np.ndarray] = []
    edge_v_chunks: List[np.ndarray] = []

    def collect(nodes: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        if nodes.size:
            node_mask[nodes] = True
        if edge_u.size:
            edge_u_chunks.append(edge_u)
            edge_v_chunks.append(edge_v)
            connected_mask[edge_u] = True
            connected_mask[edge_v] = True

    collect(*_grouped_dag_union(csr, by_source, parallel=parallel))

    _ensure_metadata_connected_bulk(
        csr, first_ids, second_ids, node_mask, connected_mask, collect
    )

    empty = np.empty(0, dtype=np.int64)
    nodes, edges = _union_to_label_sets(
        csr,
        node_mask,
        np.concatenate(edge_u_chunks) if edge_u_chunks else empty,
        np.concatenate(edge_v_chunks) if edge_v_chunks else empty,
    )
    return _build_compressed(graph, nodes, edges)


# ----------------------------------------------------------------------
# Metadata connectivity guarantee
#
# Every metadata node must end up connected to the compressed graph
# whenever the original graph permits it.  Both engines implement the same
# semantics: walk the metadata nodes of each side in order, and for every
# node not yet incident to a compressed edge, add the union of the shortest
# paths to the *nearest reachable* other-side metadata node (ties broken by
# smallest label, so the choice is engine-independent).  Only when no
# other-side node is reachable at all is the node kept bare.
def _ensure_metadata_connected_reference(
    graph: MatchGraph,
    collector: _UnionCollector,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    max_paths_per_pair: int,
) -> None:
    for metadata, other_side in ((first_metadata, second_metadata), (second_metadata, first_metadata)):
        for label in metadata:
            if label in collector.connected:
                continue
            target = _nearest_other_side(graph, label, other_side)
            if target is not None:
                for path in graph.all_shortest_paths(label, target, limit=max_paths_per_pair):
                    collector.add_path(path)
            else:
                # Disconnected in the original graph: keep the bare node so
                # downstream matching still produces a (random) ranking.
                collector.add_node(label)


def _nearest_other_side(
    graph: MatchGraph, label: str, other_side: Sequence[str]
) -> Optional[str]:
    """Nearest reachable other-side metadata node (smallest label on ties)."""
    other = set(other_side)
    other.discard(label)
    seen = {label}
    frontier = [label]
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        hits = [node for node in next_frontier if node in other]
        if hits:
            return min(hits)
        frontier = next_frontier
    return None


def _ensure_metadata_connected_bulk(
    csr,
    first_ids: np.ndarray,
    second_ids: np.ndarray,
    node_mask: np.ndarray,
    connected_mask: np.ndarray,
    collect,
) -> None:
    labels = csr.labels
    for metadata_ids, other_ids in ((first_ids, second_ids), (second_ids, first_ids)):
        for node_id in metadata_ids.tolist():
            if connected_mask[node_id]:
                continue
            # A label promoted to corpus "both" appears on both sides; it is
            # never its own connection target (mirrors the reference
            # engine's ``other.discard(label)``) — without this the level-0
            # self-target would satisfy ``stop="any"`` before the BFS ever
            # expands, and the node would wrongly be kept bare.
            targets = other_ids[other_ids != node_id]
            if targets.size == 0:
                node_mask[node_id] = True  # no possible partner: keep bare
                continue
            levels = bfs_levels(csr, node_id, targets=targets, stop="any")
            target_levels = levels[targets]
            reachable = targets[target_levels > 0]
            if reachable.size == 0:
                node_mask[node_id] = True  # keep the bare node
                continue
            nearest = int(reachable[target_levels[target_levels > 0].argmin()])
            at_min = reachable[levels[reachable] == levels[nearest]]
            target = min(at_min.tolist(), key=lambda i: labels[i])
            collect(
                *shortest_path_dag_union(
                    csr, node_id, np.array([target], dtype=np.int64), levels=levels
                )
            )


# ----------------------------------------------------------------------
# SSP — shortest paths between random node pairs (Rezvanian & Meybodi)
def ssp_compress(
    graph: MatchGraph,
    beta: float = 0.5,
    seed=None,
    max_paths_per_pair: int = 16,
    engine: str = "bulk",
    parallel=None,
) -> CompressionResult:
    """Shortest-path sampling over uniformly random node pairs.

    ``parallel`` shards the bulk engine's DAG-union sweep exactly as in
    :func:`msp_compress`.
    """
    if not 0 < beta:
        raise ValueError("beta must be positive")
    _check_engine(engine)
    rng = ensure_rng(seed)
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise ValueError("graph must have at least two nodes")
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()
    iterations = max(1, int(beta * nodes_before))
    pairs = _sample_pair_indices(rng, len(nodes), len(nodes), iterations)

    if engine == "bulk":
        csr = csr_adjacency(graph)
        # Map sampled indices to snapshot ids rather than assuming the
        # snapshot's label order matches graph.nodes() (a primed snapshot
        # is only version-checked, not order-checked).
        node_ids = csr.encode(nodes).astype(np.int64)
        by_source: Dict[int, Set[int]] = {}
        for i, j in pairs:
            if i == j:
                continue
            by_source.setdefault(int(node_ids[i]), set()).add(int(node_ids[j]))
        dag_nodes, edge_u, edge_v = _grouped_dag_union(csr, by_source, parallel=parallel)
        node_mask = np.zeros(csr.num_nodes, dtype=bool)
        if dag_nodes.size:
            node_mask[dag_nodes] = True
        node_set, edges = _union_to_label_sets(csr, node_mask, edge_u, edge_v)
        compressed = _build_compressed(graph, node_set, edges)
    else:
        collector = _UnionCollector()
        for i, j in pairs:
            if i == j:
                continue
            for path in graph.all_shortest_paths(nodes[i], nodes[j], limit=max_paths_per_pair):
                collector.add_path(path)
        compressed = _build_compressed(graph, collector.nodes, collector.edges)
    return CompressionResult(
        graph=compressed, method=f"ssp({beta})", nodes_before=nodes_before,
        edges_before=edges_before, engine=engine,
    )


# ----------------------------------------------------------------------
# SSuM-style summarization
def _merge_identical_neighborhoods(compressed: MatchGraph) -> int:
    """Merge data nodes sharing their entire neighbourhood, to a fixpoint.

    Signatures are recomputed from the live graph group by group: merging
    one super-node can change the neighbourhood of other data nodes (when
    data nodes are adjacent to data nodes), so each group is re-verified
    immediately before its merge and the pass repeats until no group with
    two live members remains.  Returns the number of absorbed nodes.
    """
    merged = 0
    changed = True
    while changed:
        changed = False
        signature: Dict[Tuple[str, ...], List[str]] = {}
        for label in compressed.data_nodes():
            key = tuple(sorted(compressed.neighbors(label)))
            signature.setdefault(key, []).append(label)
        for key in sorted(signature):
            members = [
                label
                for label in signature[key]
                if compressed.has_node(label)
                and tuple(sorted(compressed.neighbors(label))) == key
            ]
            if len(members) < 2:
                continue
            keep = members[0]
            for absorb in members[1:]:
                compressed.merge_nodes(keep, absorb)
                merged += 1
                changed = True
    return merged


def ssum_compress(
    graph: MatchGraph,
    target_ratio: float = 0.1,
    seed=None,
) -> CompressionResult:
    """Task-agnostic summarization in the spirit of SSumM.

    The method (i) groups data nodes that share their entire neighbourhood
    into a single super-node (recomputing the grouping until a fixpoint, so
    merges triggered by earlier merges are not missed), and (ii) drops the
    lowest-connectivity data nodes — by *live* degree, maintained in a heap
    as removals shrink their neighbours — until roughly ``target_ratio`` of
    the original data nodes survive.  Metadata nodes are never grouped or
    dropped.  This reproduces the qualitative behaviour reported in Table
    VIII: good size reduction, but no awareness of the metadata-to-metadata
    paths that matter for matching.
    """
    if not 0 < target_ratio <= 1:
        raise ValueError("target_ratio must be in (0, 1]")
    rng = ensure_rng(seed)
    compressed = graph.copy()
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()

    # Phase 1: merge data nodes with identical neighbourhoods (super-nodes).
    _merge_identical_neighborhoods(compressed)

    # Phase 2: drop the lowest-connectivity data nodes until only
    # ``target_ratio`` of the original data nodes survive.  Metadata nodes
    # are never dropped, and at least a handful of data nodes always remain
    # so the summarized graph stays walkable.  Selection is by live degree:
    # a removal re-queues its data neighbours at their new degree, and
    # entries whose degree went stale are discarded on pop.  Ties are broken
    # by a seeded random rank, so results stay reproducible.
    original_data_count = len(graph.data_nodes())
    target_data = max(4, int(target_ratio * original_data_count))
    data = compressed.data_nodes()
    ranks = {label: int(rank) for label, rank in zip(data, rng.permutation(len(data)))}
    heap = [(compressed.degree(label), ranks[label], label) for label in data]
    heapq.heapify(heap)
    remaining = len(data)
    while remaining > target_data and heap:
        degree, rank, label = heapq.heappop(heap)
        if not compressed.has_node(label) or compressed.degree(label) != degree:
            continue  # removed, or stale — a fresher entry is in the heap
        data_neighbors = [v for v in compressed.neighbors(label) if compressed.is_data(v)]
        compressed.remove_node(label)
        remaining -= 1
        for neighbor in data_neighbors:
            heapq.heappush(heap, (compressed.degree(neighbor), ranks[neighbor], neighbor))

    return CompressionResult(
        graph=compressed,
        method=f"ssum({target_ratio})",
        nodes_before=nodes_before,
        edges_before=edges_before,
    )


# ----------------------------------------------------------------------
# Classic sampling baselines
def random_node_compress(graph: MatchGraph, keep_ratio: float = 0.5, seed=None) -> CompressionResult:
    """Keep a uniform sample of data nodes (metadata nodes always kept)."""
    if not 0 < keep_ratio <= 1:
        raise ValueError("keep_ratio must be in (0, 1]")
    rng = ensure_rng(seed)
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()
    data_nodes = graph.data_nodes()
    n_keep = int(round(keep_ratio * len(data_nodes)))
    keep_idx = set(rng.choice(len(data_nodes), size=n_keep, replace=False).tolist()) if n_keep else set()
    keep = {data_nodes[i] for i in keep_idx}
    keep.update(graph.metadata_nodes())
    compressed = graph.subgraph(keep)
    return CompressionResult(
        graph=compressed,
        method=f"random-node({keep_ratio})",
        nodes_before=nodes_before,
        edges_before=edges_before,
    )


def random_edge_compress(graph: MatchGraph, keep_ratio: float = 0.5, seed=None) -> CompressionResult:
    """Keep a uniform sample of edges; isolated data nodes are dropped."""
    if not 0 < keep_ratio <= 1:
        raise ValueError("keep_ratio must be in (0, 1]")
    rng = ensure_rng(seed)
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()
    edges = list(graph.edges())
    n_keep = int(round(keep_ratio * len(edges)))
    keep_idx = set(rng.choice(len(edges), size=n_keep, replace=False).tolist()) if n_keep else set()
    compressed = MatchGraph()
    for label in graph.metadata_nodes():
        _copy_node(graph, compressed, label)
    for i in keep_idx:
        u, v = edges[i]
        for node in (u, v):
            if not compressed.has_node(node):
                _copy_node(graph, compressed, node)
        compressed.add_edge(u, v)
    return CompressionResult(
        graph=compressed,
        method=f"random-edge({keep_ratio})",
        nodes_before=nodes_before,
        edges_before=edges_before,
    )
