"""Graph substrate: the heterogeneous data/metadata graph of TDmatch.

Modules
-------
``graph``
    Lightweight undirected graph with typed nodes (data vs metadata).
``builder``
    Algorithm 1 — joint graph creation over two corpora.
``filtering``
    Data-node filtering strategies (Intersect, TF-IDF, none).
``merging``
    Node-merging techniques: stemming (applied at preprocessing), numeric
    bucketing with the Freedman–Diaconis rule, and embedding-based merging.
``expansion``
    Algorithm 2 — expansion with an external knowledge resource.
``compression``
    Algorithm 3 (MSP) plus the SSP, SSuM-style, and random-sampling baselines.
``walks``
    Random-walk corpus generation (walk half of Algorithm 4).
``csr``
    Immutable CSR snapshot of the graph, cached against its version.
``walk_engine``
    Pluggable walk engines: reference step-at-a-time vs vectorised CSR.
"""

from repro.graph.graph import MatchGraph, NodeKind, dedup_edge_ids
from repro.graph.builder import GRAPH_ENGINES, GraphBuilder, GraphBuilderConfig
from repro.graph.filtering import (
    BulkFilter,
    BulkIntersectFilter,
    BulkNoFilter,
    BulkTfIdfFilter,
    FilterStatistics,
    FilterStrategy,
    IntersectFilter,
    NoFilter,
    TfIdfFilter,
    make_bulk_filter,
)
from repro.graph.merging import NumericBucketer, EmbeddingMerger, MergeReport
from repro.graph.expansion import expand_graph, ExpansionResult
from repro.graph.compression import (
    COMPRESSION_ENGINES,
    CompressionResult,
    msp_compress,
    ssp_compress,
    ssum_compress,
    random_node_compress,
    random_edge_compress,
)
from repro.graph.walks import RandomWalkConfig, generate_walks, iter_walks
from repro.graph.csr import (
    CSRAdjacency,
    bfs_levels,
    build_csr,
    build_csr_from_edges,
    csr_adjacency,
    gather_neighbors,
    multi_source_dag_union,
    prime_csr_cache,
    shortest_path_dag_union,
)
from repro.graph.walk_engine import (
    CSRWalkEngine,
    PythonWalkEngine,
    make_walk_engine,
)

__all__ = [
    "MatchGraph",
    "NodeKind",
    "dedup_edge_ids",
    "GRAPH_ENGINES",
    "GraphBuilder",
    "GraphBuilderConfig",
    "FilterStrategy",
    "FilterStatistics",
    "IntersectFilter",
    "NoFilter",
    "TfIdfFilter",
    "BulkFilter",
    "BulkIntersectFilter",
    "BulkNoFilter",
    "BulkTfIdfFilter",
    "make_bulk_filter",
    "NumericBucketer",
    "EmbeddingMerger",
    "MergeReport",
    "expand_graph",
    "ExpansionResult",
    "COMPRESSION_ENGINES",
    "CompressionResult",
    "msp_compress",
    "ssp_compress",
    "ssum_compress",
    "random_node_compress",
    "random_edge_compress",
    "RandomWalkConfig",
    "generate_walks",
    "iter_walks",
    "CSRAdjacency",
    "bfs_levels",
    "build_csr",
    "build_csr_from_edges",
    "csr_adjacency",
    "gather_neighbors",
    "multi_source_dag_union",
    "prime_csr_cache",
    "shortest_path_dag_union",
    "CSRWalkEngine",
    "PythonWalkEngine",
    "make_walk_engine",
]
