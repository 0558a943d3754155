"""Sharded multi-source DAG-union sweeps for graph compression.

MSP/SSP's bulk engine groups sampled pairs into a ``{source: targets}``
mapping and runs one batched BFS + backward sweep over the sorted sources
(:func:`repro.graph.csr.multi_source_dag_union`).  That sweep is
embarrassingly parallel across source groups: this module splits the
sorted source list into contiguous shards, runs the union per shard
against shared-memory views of the CSR arrays, and concatenates the
per-shard results in shard order.

Pair sampling happens *before* this sweep (serially, on the stage's RNG
stream) and the downstream merge dedups node masks and edge sets through
``dedup_edge_ids``/set semantics, so the compressed graph is bit-identical
to the serial engine at **any** shard and worker count — the strongest
case of the parallel layer's determinism contract.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import multi_source_dag_union
from repro.parallel.config import ParallelConfig
from repro.parallel.shm import ShmArena, SharedArray, WorkerPool, attached, shard_ranges


class _CSRView:
    """The minimal CSR duck type :func:`multi_source_dag_union` traverses."""

    __slots__ = ("indptr", "indices", "num_nodes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_nodes: int):
        self.indptr = indptr
        self.indices = indices
        self.num_nodes = int(num_nodes)


def dag_union_shard(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_nodes: int,
    sources: np.ndarray,
    targets_list: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shard's union sweep over raw CSR arrays."""
    view = _CSRView(indptr, indices, num_nodes)
    return multi_source_dag_union(view, sources, list(targets_list))


def _dag_union_task(
    indptr_d: SharedArray,
    indices_d: SharedArray,
    num_nodes: int,
    sources: np.ndarray,
    targets_list: Sequence[np.ndarray],
):
    """Worker entry point: shard results travel back as plain arrays."""
    with attached(indptr_d, indices_d) as (indptr, indices):
        nodes, edge_u, edge_v = dag_union_shard(
            indptr, indices, num_nodes, sources, targets_list
        )
        return np.array(nodes), np.array(edge_u), np.array(edge_v)


def parallel_grouped_dag_union(
    csr,
    by_source: Dict[int, Set[int]],
    parallel: ParallelConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sharded equivalent of the serial grouped DAG-union sweep.

    Returns concatenated ``(nodes, edge_u, edge_v)`` id arrays; shards may
    repeat each other's nodes and edges, and the caller dedups.
    """
    sources = sorted(by_source)
    num_shards = max(1, min(parallel.shards, len(sources)))
    chunks = []
    for lo, hi in shard_ranges(len(sources), num_shards):
        if hi <= lo:
            continue
        shard_sources = sources[lo:hi]
        chunks.append(
            (
                np.array(shard_sources, dtype=np.int64),
                [
                    np.fromiter(by_source[s], dtype=np.int64, count=len(by_source[s]))
                    for s in shard_sources
                ],
            )
        )

    if parallel.num_workers <= 1 or len(chunks) <= 1:
        results = [
            multi_source_dag_union(csr, shard_sources, targets_list)
            for shard_sources, targets_list in chunks
        ]
    else:
        with ShmArena() as arena, WorkerPool(parallel, label="compression") as pool:
            indptr_d = arena.share(csr.indptr)
            indices_d = arena.share(csr.indices)
            results = pool.run(
                _dag_union_task,
                [
                    (indptr_d, indices_d, csr.num_nodes, shard_sources, targets_list)
                    for shard_sources, targets_list in chunks
                ],
            )

    empty = np.empty(0, dtype=np.int64)
    if not results:
        return empty, empty, empty
    nodes: List[np.ndarray] = [r[0] for r in results]
    edge_u: List[np.ndarray] = [r[1] for r in results]
    edge_v: List[np.ndarray] = [r[2] for r in results]
    return (
        np.concatenate(nodes) if nodes else empty,
        np.concatenate(edge_u) if edge_u else empty,
        np.concatenate(edge_v) if edge_v else empty,
    )
