"""The TDmatch pipeline (Figure 3 of the paper).

``TDMatch`` wires the whole unsupervised solution together:

1. build the joint graph over the two corpora (Algorithm 1);
2. optionally merge nodes (numeric bucketing, pre-trained-embedding merge);
3. optionally expand the graph with an external knowledge base (Algorithm 2);
4. optionally compress it (Algorithm 3 / baselines);
5. generate random walks and train Word2Vec on them (Algorithm 4);
6. rank, for every document of the query corpus, the documents of the other
   corpus by cosine similarity of their metadata-node vectors — delegated
   to a pluggable retrieval backend (:mod:`repro.retrieval`): exact chunked
   dense top-k by default, or blocked scoring that skips non-blocked pairs.

Typical use::

    pipeline = TDMatch(TDMatchConfig.for_text_to_data(), seed=7)
    pipeline.fit(reviews_corpus, movies_table)
    rankings = pipeline.match(k=20)
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.blocking import GraphQueryBlocker, MetadataNeighborhoodBlocking
from repro.core.config import TDMatchConfig
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.matcher import MetadataMatcher
from repro.corpus.documents import TextCorpus
from repro.corpus.table import Table
from repro.corpus.taxonomy import Taxonomy
from repro.embeddings.word2vec import Word2Vec
from repro.eval.ranking import RankingSet
from repro.graph.builder import BuiltGraph, GraphBuilder
from repro.graph.compression import (
    CompressionResult,
    msp_compress,
    random_edge_compress,
    random_node_compress,
    ssp_compress,
    ssum_compress,
)
from repro.graph.expansion import ExpansionResult, expand_graph
from repro.graph.merging import EmbeddingMerger, NumericBucketer
from repro.graph.walk_engine import make_walk_engine
from repro.parallel.reliability import drain_events
from repro.retrieval import BlockedTopK, DenseTopK, RetrievalStats
from repro.retrieval.base import QueryBlocker, RetrievalBackend
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng
from repro.utils.timing import Stopwatch, TimingRegistry

logger = get_logger(__name__)


def _timed_iter(items: Iterable[List[str]], stopwatch: Stopwatch) -> Iterator[List[str]]:
    """Yield from ``items`` while charging production time to ``stopwatch``."""
    iterator = iter(items)
    while True:
        stopwatch.start()
        try:
            item = next(iterator)
        except StopIteration:
            stopwatch.stop()
            return
        stopwatch.stop()
        yield item


@dataclass
class MatchResult:
    """A ranking set together with provenance information."""

    rankings: RankingSet
    query_side: str
    k: int
    retrieval: Optional[RetrievalStats] = None

    def to_dict(self) -> Dict[str, object]:
        """The result as a plain JSON-able dict (for ``--json`` / reports)."""
        return {
            "query_side": self.query_side,
            "k": self.k,
            "rankings": {
                ranking.query_id: [
                    [candidate_id, float(score)]
                    for candidate_id, score in ranking.candidates
                ]
                for ranking in self.rankings
            },
            "retrieval": (
                {
                    "backend": self.retrieval.backend,
                    "n_queries": self.retrieval.n_queries,
                    "n_candidates": self.retrieval.n_candidates,
                    "scored_pairs": self.retrieval.scored_pairs,
                    "all_pairs": self.retrieval.all_pairs,
                    "reduction_ratio": self.retrieval.reduction_ratio,
                }
                if self.retrieval is not None
                else None
            ),
        }


@dataclass
class PipelineState:
    """Everything the pipeline learned during :meth:`TDMatch.fit`."""

    built: BuiltGraph
    model: Word2Vec
    merge_reports: list = field(default_factory=list)
    expansion: Optional[ExpansionResult] = None
    compression: Optional[CompressionResult] = None
    walk_engine: Optional[str] = None  # the engine that ran, after any fallback


class TDMatch:
    """End-to-end unsupervised matcher for heterogeneous corpora."""

    def __init__(self, config: Optional[TDMatchConfig] = None, seed=None):
        self.config = config or TDMatchConfig()
        self.seed = seed
        self.timings = TimingRegistry()
        self._state: Optional[PipelineState] = None
        self._builder: Optional[GraphBuilder] = None
        self._builder_config = None  # snapshot the builder was created from
        self._corpus_kinds: Optional[tuple] = None
        self._delta_count = 0  # incremental batches applied since fit/load
        self._reliability_events: List = []  # supervision incidents absorbed so far
        self._serving: Optional[Dict[str, object]] = None  # set by load_pipeline

    # ------------------------------------------------------------------
    # Fitting
    def fit(self, first, second) -> "TDMatch":
        """Build the graph over ``first`` and ``second`` and learn embeddings."""
        self._validate_corpus(first, "first")
        self._validate_corpus(second, "second")
        self._corpus_kinds = (self._corpus_kind(first), self._corpus_kind(second))
        self._delta_count = 0
        self._serving = None
        # Discard supervision incidents left over from other pipelines in
        # this process; this fit's incidents are absorbed at the end.
        drain_events()
        self._reliability_events = []

        with self.timings.measure("graph_build"):
            built = self._graph_builder().build(first, second)
        logger.info(
            "graph built: %d nodes, %d edges", built.graph.num_nodes(), built.graph.num_edges()
        )

        merge_reports = self._apply_merging(built)
        expansion = self._apply_expansion(built)
        compression = self._apply_compression(built)

        # Walk sentences stream straight into Word2Vec training instead of
        # materialising the full corpus first; the stopwatch around each
        # ``next()`` keeps "walks" and "word2vec" separately attributed.
        parallel = self.config.parallel
        engine = make_walk_engine(built.graph, self.config.walks)
        walk_timer = Stopwatch()
        sentences = _timed_iter(
            engine.iter_walks(seed=derive_rng(self.seed, "walks")), walk_timer
        )
        train_start = time.perf_counter()
        model = Word2Vec(
            self.config.word2vec, seed=derive_rng(self.seed, "word2vec"), parallel=parallel
        )
        model.train(sentences)
        train_total = time.perf_counter() - train_start
        self.timings.add("walks", walk_timer.stop())
        self.timings.add("word2vec", max(0.0, train_total - walk_timer.elapsed))

        self._state = PipelineState(
            built=built,
            model=model,
            merge_reports=merge_reports,
            expansion=expansion,
            compression=compression,
            walk_engine=engine.name,
        )
        self._absorb_reliability_events()
        return self

    def _absorb_reliability_events(self) -> None:
        """Move collected worker-supervision incidents onto this pipeline.

        The pools record incidents (timeouts, crashes, retries,
        degradations) into the module-level collector as they happen; this
        drains it so ``report()`` / ``--json`` expose what went wrong and
        how it was absorbed, per the reliability policy.
        """
        self._reliability_events.extend(drain_events())

    def _graph_builder(self) -> GraphBuilder:
        """The pipeline's graph builder, reused across :meth:`fit` calls.

        Reuse keeps the bulk engine's value-level interner warm, so
        re-fitting over the same or overlapping corpora (parameter sweeps,
        growing datasets) skips preprocessing for every value seen before.
        The builder is rebuilt when ``config.builder`` changes (compared
        against a deep-copied snapshot, since configs are mutable).
        """
        if self._builder is None or self._builder_config != self.config.builder:
            self._builder = GraphBuilder(self.config.builder)
            self._builder_config = copy.deepcopy(self.config.builder)
        return self._builder

    @staticmethod
    def _corpus_kind(corpus) -> str:
        if isinstance(corpus, Table):
            return "table"
        if isinstance(corpus, Taxonomy):
            return "taxonomy"
        return "text"

    def _validate_corpus(self, corpus, position: str) -> None:
        if not isinstance(corpus, (Table, TextCorpus, Taxonomy)):
            raise PipelineError(
                f"{position} corpus must be a Table, TextCorpus, or Taxonomy, got {type(corpus)!r}"
            )
        if len(corpus) == 0:
            raise PipelineError(f"{position} corpus is empty")

    # -- optional graph refinement stages --------------------------------
    def _apply_merging(self, built: BuiltGraph) -> list:
        reports: list = []
        merge_cfg = self.config.merge
        if merge_cfg.bucket_numeric:
            with self.timings.measure("merge_bucketing"):
                bucketer = NumericBucketer(width=merge_cfg.bucket_width)
                reports.append(bucketer.apply(built.graph))
        if merge_cfg.merge_embeddings:
            with self.timings.measure("merge_embeddings"):
                merger = EmbeddingMerger(merge_cfg.pretrained, threshold=merge_cfg.gamma)
                if merger.threshold is None:
                    if not merge_cfg.synonym_pairs:
                        raise PipelineError(
                            "embedding merging needs either gamma or synonym_pairs for calibration"
                        )
                    merger.calibrate_threshold(merge_cfg.synonym_pairs)
                reports.append(merger.apply(built.graph))
        return reports

    def _apply_expansion(self, built: BuiltGraph) -> Optional[ExpansionResult]:
        expansion_cfg = self.config.expansion
        if not expansion_cfg.enabled:
            return None
        with self.timings.measure("expansion"):
            return expand_graph(
                built.graph,
                expansion_cfg.resource,
                max_relations_per_node=expansion_cfg.max_relations_per_node,
                remove_sinks=expansion_cfg.remove_sinks,
            )

    def _apply_compression(self, built: BuiltGraph) -> Optional[CompressionResult]:
        compression_cfg = self.config.compression
        if not compression_cfg.enabled:
            return None
        with self.timings.measure("compression"):
            seed = derive_rng(self.seed, "compression")
            if compression_cfg.method == "msp":
                result = msp_compress(
                    built.graph,
                    built.first_labels(),
                    built.second_labels(),
                    beta=compression_cfg.ratio,
                    seed=seed,
                    max_paths_per_pair=compression_cfg.max_paths_per_pair,
                    engine=compression_cfg.engine,
                    parallel=self.config.parallel,
                )
            elif compression_cfg.method == "ssp":
                result = ssp_compress(
                    built.graph,
                    beta=compression_cfg.ratio,
                    seed=seed,
                    max_paths_per_pair=compression_cfg.max_paths_per_pair,
                    engine=compression_cfg.engine,
                    parallel=self.config.parallel,
                )
            elif compression_cfg.method == "ssum":
                result = ssum_compress(built.graph, target_ratio=compression_cfg.ratio, seed=seed)
            elif compression_cfg.method == "random-node":
                result = random_node_compress(built.graph, keep_ratio=compression_cfg.ratio, seed=seed)
            else:
                result = random_edge_compress(built.graph, keep_ratio=compression_cfg.ratio, seed=seed)
        # The compressed graph replaces the original for walks and matching.
        built.graph = result.graph
        return result

    # ------------------------------------------------------------------
    # Introspection
    @property
    def state(self) -> PipelineState:
        if self._state is None:
            raise NotFittedError("call fit() before accessing the pipeline state")
        return self._state

    @property
    def graph(self):
        return self.state.built.graph

    @property
    def model(self) -> Word2Vec:
        return self.state.model

    def _metadata_labels(self, side: str) -> Dict[str, str]:
        """Object id → metadata-node label for one corpus."""
        if side == "first":
            return self.state.built.first_metadata
        if side == "second":
            return self.state.built.second_metadata
        raise ValueError("side must be 'first' or 'second'")

    def _metadata_matrix(self, side: str) -> Tuple[List[str], np.ndarray]:
        """Ids and float64 vectors of one corpus's metadata nodes, row-aligned.

        All rows are taken from the model's embedding matrix in one gather.
        Metadata nodes that fell out of the walk vocabulary (isolated nodes)
        get a zero row so every document still receives a ranking.
        """
        labels = self._metadata_labels(side)
        model = self.state.model
        embeddings = model.embedding_matrix()
        id_of = model.vocab.id_of
        rows = np.array(
            [-1 if row is None else row for row in map(id_of, labels.values())],
            dtype=np.intp,
        )
        matrix = embeddings[rows].astype(np.float64)
        matrix[rows < 0] = 0.0
        return list(labels), matrix

    def metadata_vectors(self, side: str = "first") -> Dict[str, np.ndarray]:
        """Learned vectors of the metadata nodes of one corpus, by object id.

        Out-of-vocabulary metadata nodes get a zero vector, as in
        :meth:`matcher`.
        """
        ids, matrix = self._metadata_matrix(side)
        return dict(zip(ids, matrix))

    # ------------------------------------------------------------------
    # Matching
    def matcher(self, query_side: str = "first") -> MetadataMatcher:
        """A :class:`MetadataMatcher` for the chosen query side."""
        if query_side not in ("first", "second"):
            raise ValueError("query_side must be 'first' or 'second'")
        candidate_side = "second" if query_side == "first" else "first"
        query_ids, query_matrix = self._metadata_matrix(query_side)
        candidate_ids, candidate_matrix = self._metadata_matrix(candidate_side)
        return MetadataMatcher(query_ids, query_matrix, candidate_ids, candidate_matrix)

    def _retrieval_dtype(self):
        return np.float32 if self.config.retrieval.dtype == "float32" else None

    def _graph_query_blocker(self, query_side: str) -> QueryBlocker:
        """Graph-native blocker over the fitted match graph."""
        cfg = self.config.retrieval
        candidate_side = "second" if query_side == "first" else "first"
        blocking = MetadataNeighborhoodBlocking(
            self.graph, max_hops=cfg.max_hops, max_block_size=cfg.max_block_size
        )
        return GraphQueryBlocker(
            blocking, self._metadata_labels(query_side), self._metadata_labels(candidate_side)
        )

    def retrieval_backend(
        self, query_side: str = "first", blocker: Optional[QueryBlocker] = None
    ) -> RetrievalBackend:
        """The retrieval backend selected by ``config.retrieval``.

        An explicit ``blocker`` (for example a
        :class:`~repro.core.blocking.TextQueryBlocker` over token blocking,
        which needs the corpus texts the fitted pipeline does not retain)
        forces the blocked backend.  Otherwise the "blocked" backend builds
        the graph-native neighbourhood blocker from the fitted match graph.
        """
        cfg = self.config.retrieval
        dtype = self._retrieval_dtype()
        if blocker is None and cfg.backend == "blocked":
            blocker = self._graph_query_blocker(query_side)
        if blocker is not None:
            return BlockedTopK(
                blocker,
                fallback_to_full=cfg.fallback_to_full,
                dtype=dtype,
                chunk_size=cfg.chunk_size,
            )
        return DenseTopK(chunk_size=cfg.chunk_size, dtype=dtype)

    def match(
        self,
        k: int = 20,
        query_side: str = "first",
        blocker: Optional[QueryBlocker] = None,
    ) -> RankingSet:
        """Rank the top-k candidates of the other corpus for every query."""
        return self.match_result(k=k, query_side=query_side, blocker=blocker).rankings

    def match_result(
        self,
        k: int = 20,
        query_side: str = "first",
        blocker: Optional[QueryBlocker] = None,
    ) -> MatchResult:
        backend = self.retrieval_backend(query_side, blocker=blocker)
        with self.timings.measure("match"):
            rankings, stats = self.matcher(query_side).match_with_stats(k=k, backend=backend)
        return MatchResult(rankings=rankings, query_side=query_side, k=k, retrieval=stats)

    # ------------------------------------------------------------------
    # Persistence (single-file, memory-mappable serving index)
    def save(self, path: str) -> str:
        """Serialise the fitted pipeline into a single index file.

        The file contains everything :meth:`match` needs — CSR graph
        snapshot, embedding matrices, vocabulary, metadata maps, and a
        config snapshot — and is memory-mappable: ``load(path, mmap=True)``
        opens the embeddings as shared read-only pages.
        """
        from repro.serving.index import save_pipeline

        return save_pipeline(self, path)

    @classmethod
    def load(cls, path: str, mmap: Optional[bool] = None, verify: str = "header") -> "TDMatch":
        """Restore a ready-to-serve pipeline from :meth:`save` output.

        ``mmap=None`` honours the ``serving.mmap`` flag stored in the
        index; ``True`` memory-maps the arrays (N processes share pages),
        ``False`` loads private writable copies.  ``verify`` controls
        corruption detection before serving: ``"header"`` (default) checks
        the container structure and header checksum, ``"full"`` also CRCs
        every array blob (raising
        :class:`~repro.serving.index.IndexCorruptionError` naming the
        first bad one), ``"none"`` keeps only the structural checks.
        """
        from repro.serving.index import load_pipeline

        return load_pipeline(path, mmap=mmap, verify=verify)

    # ------------------------------------------------------------------
    # Incremental fit
    def add_documents(self, documents, side: str = "second") -> List[str]:
        """Add text documents to a fitted pipeline without a full refit.

        The delta is spliced into the graph, walks are regenerated only in
        the touched neighbourhood, and the model is warm-start fine-tuned
        on them.  Returns the new metadata labels.
        """
        from repro.serving.incremental import add_documents

        try:
            return add_documents(self, documents, side=side)
        finally:
            self._absorb_reliability_events()

    def add_records(self, records, side: str = "second") -> List[str]:
        """Add table rows to a fitted pipeline without a full refit."""
        from repro.serving.incremental import add_records

        try:
            return add_records(self, records, side=side)
        finally:
            self._absorb_reliability_events()

    def remove(self, object_ids, side: str = "second") -> List[str]:
        """Remove objects and their metadata nodes from a fitted pipeline."""
        from repro.serving.incremental import remove

        return remove(self, object_ids, side=side)

    # ------------------------------------------------------------------
    # Structured reporting
    def engines(self) -> Dict[str, str]:
        """The engine selected for each pipeline stage (see ``ENGINE_STAGES``)."""
        return dict(self.config.engines)

    def report(self) -> Dict[str, object]:
        """A JSON-able provenance record, derived from state on every call.

        Values keep their types (int, float, bool, str); README's "The
        ``report()`` schema" lists the keys.  Per-query retrieval
        statistics live on :class:`MatchResult`, not here.
        """
        parallel = self.config.parallel
        parallel_info: Dict[str, object] = {"num_workers": parallel.num_workers}
        if parallel.enabled:
            parallel_info["shards"] = parallel.shards
        report: Dict[str, object] = {
            "engines": self.engines(),
            "parallel": parallel_info,
            "timings": self.timings.to_dict(),
            "reliability": [event.to_dict() for event in self._reliability_events],
        }
        if self._serving is not None:
            report["serving"] = dict(self._serving)
        if self._state is None:
            return report
        state = self._state
        built = state.built
        nodes, edges = built.size()
        graph_info: Dict[str, object] = {
            "nodes": nodes,
            "edges": edges,
            "engine": built.engine,
            "intersect_anchor": built.intersect_anchor,
        }
        if built.filter_stats is not None:
            graph_info["filter_kept_fraction"] = built.filter_stats.kept_fraction
        report["graph"] = graph_info
        if state.walk_engine is not None:
            report["walks"] = {"engine": state.walk_engine}
        compression = state.compression
        if compression is not None:
            report["compression"] = {
                "method": compression.method,
                "engine": compression.engine,
                "nodes_before": compression.nodes_before,
                "nodes_after": compression.nodes_after,
                "edges_before": compression.edges_before,
                "edges_after": compression.edges_after,
            }
        model = state.model
        model_info: Dict[str, object] = {
            "vocab_size": len(model.vocab) if model.vocab is not None else 0,
            "vector_size": model.config.vector_size,
        }
        if model.stats is not None:  # trained or fine-tuned in this process
            model_info.update(asdict(model.stats), pairs_per_sec=model.stats.pairs_per_sec)
        report["model"] = model_info
        report["incremental_deltas"] = self._delta_count
        return report
