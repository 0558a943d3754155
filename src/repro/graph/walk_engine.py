"""Walk engines: pluggable implementations of Algorithm 4's walk stage.

Both engines produce corpora with identical semantics — the same start-node
multiset (every resolved start node, ``num_walks`` times), uniform neighbour
choice at every step, and early termination on isolated nodes — and both are
deterministic under a fixed seed.  They differ only in how they consume
randomness and in speed:

``PythonWalkEngine``
    Thin wrapper over the reference generator in :mod:`repro.graph.walks`;
    one Python-level step (hash lookup + set→tuple + scalar ``integers``
    draw) per walk position.

``CSRWalkEngine``
    Snapshots the graph into CSR arrays (:mod:`repro.graph.csr`) and
    advances *all* walks of a batch one step per iteration: a single
    vectorised ``rng.integers`` draw picks a neighbour offset for every
    active walk, and a boolean mask retires walks that reached an isolated
    node.  Walks live as an ``int32`` id matrix and are decoded back to
    label sentences lazily, batch by batch, so the full corpus is never
    materialised twice.

Use :func:`make_walk_engine` to honour ``RandomWalkConfig.walk_engine`` with
automatic fallback to the reference engine when the CSR snapshot cannot be
built.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRAdjacency, csr_adjacency
from repro.graph.graph import MatchGraph
from repro.graph.walks import (
    RandomWalkConfig,
    iter_walks_python,
    resolve_start_nodes,
)
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng

logger = get_logger(__name__)

#: Walks advanced together per vectorised batch.  Bounds peak memory at
#: ``batch_size × walk_length`` int32 cells (~4 MB at the default) while
#: keeping every numpy call wide enough to amortise dispatch overhead.
DEFAULT_BATCH_SIZE = 32768


def walk_batch_ids(
    indptr: np.ndarray,
    indices: np.ndarray,
    start_ids: np.ndarray,
    walk_length: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance one batch of walks to completion over raw CSR arrays.

    The id-matrix core of :meth:`CSRWalkEngine.walk_batch`, taking bare
    ``indptr``/``indices`` arrays.  Returns ``(walks, lengths)``: an
    ``int32`` matrix of shape ``(len(start_ids), walk_length)`` and the
    effective length of each row.
    """
    n_walks = int(start_ids.size)
    walks = np.zeros((n_walks, walk_length), dtype=np.int32)
    walks[:, 0] = start_ids
    lengths = np.ones(n_walks, dtype=np.int64)
    if walk_length == 1 or n_walks == 0:
        return walks, lengths

    current = start_ids.astype(np.int64, copy=True)
    active = (indptr[current + 1] - indptr[current]) > 0
    for step in range(1, walk_length):
        active_idx = np.nonzero(active)[0]
        if active_idx.size == 0:
            break
        cur = current[active_idx]
        row_start = indptr[cur]
        degrees = indptr[cur + 1] - row_start
        offsets = rng.integers(0, degrees)
        nxt = indices[row_start + offsets].astype(np.int64)
        walks[active_idx, step] = nxt
        current[active_idx] = nxt
        lengths[active_idx] = step + 1
        stuck = (indptr[nxt + 1] - indptr[nxt]) == 0
        if stuck.any():
            active[active_idx[stuck]] = False
    return walks, lengths


class PythonWalkEngine:
    """Reference engine: step-at-a-time walks over the dict adjacency."""

    name = "reference"

    def __init__(self, graph: MatchGraph, config: Optional[RandomWalkConfig] = None):
        self.graph = graph
        self.config = config or RandomWalkConfig()

    def iter_walks(self, seed=None) -> Iterator[List[str]]:
        return iter_walks_python(self.graph, self.config, seed=seed)

    def generate_walks(self, seed=None) -> List[List[str]]:
        return list(self.iter_walks(seed=seed))


class CSRWalkEngine:
    """Vectorised engine: all walks advance one step per numpy call."""

    name = "csr"

    def __init__(
        self,
        graph: MatchGraph,
        config: Optional[RandomWalkConfig] = None,
        batch_size: Optional[int] = None,
    ):
        self.graph = graph
        self.config = config or RandomWalkConfig()
        self.batch_size = DEFAULT_BATCH_SIZE if batch_size is None else int(batch_size)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # Build eagerly so an unbuildable snapshot fails construction (and
        # triggers make_walk_engine's fallback) instead of failing later.
        csr_adjacency(graph)

    @property
    def csr(self) -> CSRAdjacency:
        """The current CSR snapshot (re-fetched so graph mutations between
        engine creation and walk generation are picked up; the fetch is free
        while the graph is unchanged thanks to the version-keyed cache)."""
        return csr_adjacency(self.graph)

    # -- id-matrix core ------------------------------------------------
    def walk_batch(
        self,
        start_ids: np.ndarray,
        rng: np.random.Generator,
        csr: Optional[CSRAdjacency] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one batch of walks to completion.

        Returns ``(walks, lengths)``: an ``int32`` matrix of node ids of
        shape ``(len(start_ids), walk_length)`` and the effective length of
        each row (cells past the length are undefined).  ``csr`` pins a
        specific snapshot (``iter_walks`` passes one so a whole corpus is
        generated against consistent topology); ``None`` uses the current
        snapshot of the graph.
        """
        if csr is None:
            csr = self.csr
        return walk_batch_ids(
            csr.indptr, csr.indices, start_ids, self.config.walk_length, rng
        )

    # -- sentence views ------------------------------------------------
    def iter_walks(self, seed=None) -> Iterator[List[str]]:
        """Lazily yield label sentences, decoding one batch at a time.

        The corpus is deterministic for a given ``(seed, batch_size)``;
        changing the batch size regroups the vectorised draws and therefore
        produces a different (identically distributed) corpus.
        """
        rng = ensure_rng(seed)
        starts = resolve_start_nodes(self.graph, self.config)
        if not starts:
            return
        # One snapshot for the whole corpus: mutations made after this
        # point take effect on the *next* iter_walks call.
        csr = self.csr
        start_ids = csr.encode(starts)
        labels = csr.labels
        for _ in range(self.config.num_walks):
            for lo in range(0, start_ids.size, self.batch_size):
                chunk = start_ids[lo : lo + self.batch_size]
                walks, lengths = self.walk_batch(chunk, rng, csr=csr)
                # Bulk-convert to python ints first: indexing ``labels`` with
                # numpy scalars is several times slower than with ints.
                for row, n in zip(walks.tolist(), lengths.tolist()):
                    yield [labels[i] for i in row[:n]]

    def generate_walks(self, seed=None) -> List[List[str]]:
        return list(self.iter_walks(seed=seed))


def make_walk_engine(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    batch_size: Optional[int] = None,
):
    """Instantiate the engine selected by ``config.walk_engine``.

    The CSR engine falls back to the reference engine when the snapshot cannot
    be built — only for the failure classes snapshot construction can
    legitimately hit (allocation failure or an id space overflowing the
    int32 CSR indices), each logged as a warning through
    :mod:`repro.utils.logging` before degrading.  Anything else (a caller
    bug such as an invalid ``batch_size``, or an unexpected error)
    propagates: silently swapping engines on an unknown failure would hide
    real defects behind a slower but working fit.
    """
    config = config or RandomWalkConfig()
    if config.walk_engine == "reference":
        return PythonWalkEngine(graph, config)
    try:
        # Build (or fetch) the snapshot first so only genuine snapshot
        # failures trigger the fallback; the engine constructor below
        # reuses the cached result, so this costs nothing extra.
        csr_adjacency(graph)
    except (MemoryError, OverflowError, ValueError) as exc:
        logger.warning(
            "CSR snapshot unavailable (%s: %s); falling back to the reference "
            "walk engine",
            type(exc).__name__,
            exc,
        )
        return PythonWalkEngine(graph, config)
    return CSRWalkEngine(graph, config, batch_size=batch_size)
