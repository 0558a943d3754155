"""Candidate blocking for faster matching.

The paper's conclusion lists *blocking* as planned future work: instead of
scoring every (query, candidate) pair with cosine similarity, a cheap
blocking pass restricts each query to the candidates it shares at least one
informative term with, and only those pairs are ranked with the embeddings.

Two blockers are provided:

* :class:`TokenBlocking` — inverted index over the terms of the candidate
  documents; a candidate is in the block of a query when they share at
  least ``min_shared_terms`` terms (rare terms can be weighted by IDF).
* :class:`MetadataNeighborhoodBlocking` — graph-native blocking: candidates
  whose metadata node is within ``max_hops`` hops of the query's metadata
  node in the match graph.  This reuses the structure the pipeline already
  built and therefore needs no extra text processing.

Both are lifted to the per-query-id
:class:`~repro.retrieval.base.QueryBlocker` interface by
:class:`TextQueryBlocker` / :class:`GraphQueryBlocker`.  Pass either adapter
to :class:`~repro.retrieval.blocked.BlockedTopK` (for instance through
``MetadataMatcher.match_with_stats(backend=...)``) or to
``TDMatch.match(blocker=...)``: only the blocked pairs are scored, exactly
``RetrievalStats.scored_pairs`` of them, and an empty block falls back to
the full ranking when ``fallback_to_full`` is set.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Mapping, Optional, Set

from repro.graph.graph import MatchGraph
from repro.text.preprocess import Preprocessor


def _check_max_block_size(max_block_size: Optional[int]) -> None:
    if max_block_size is not None and max_block_size < 1:
        raise ValueError("max_block_size must be None or >= 1")


class TokenBlocking:
    """Inverted-index blocking on shared (optionally IDF-weighted) terms."""

    def __init__(
        self,
        min_shared_terms: int = 1,
        use_idf: bool = True,
        max_block_size: Optional[int] = None,
        preprocessor: Optional[Preprocessor] = None,
    ):
        if min_shared_terms < 1:
            raise ValueError("min_shared_terms must be >= 1")
        _check_max_block_size(max_block_size)
        self.min_shared_terms = min_shared_terms
        self.use_idf = use_idf
        self.max_block_size = max_block_size
        self.preprocessor = preprocessor or Preprocessor()
        self._index: Dict[str, List[str]] = {}
        self._idf: Dict[str, float] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, candidates: Mapping[str, str]) -> "TokenBlocking":
        """Index the candidate texts."""
        index: Dict[str, List[str]] = defaultdict(list)
        doc_freq: Counter = Counter()
        for candidate_id, text in candidates.items():
            tokens = set(self.preprocessor.tokens(text))
            doc_freq.update(tokens)
            for token in tokens:
                index[token].append(candidate_id)
        n_docs = max(len(candidates), 1)
        self._idf = {t: math.log((1 + n_docs) / (1 + df)) + 1.0 for t, df in doc_freq.items()}
        self._index = dict(index)
        self._fitted = True
        return self

    def block(self, query_text: str) -> List[str]:
        """Candidate ids sharing enough terms with ``query_text``.

        The block is sorted by decreasing (weighted) overlap and truncated
        to ``max_block_size`` when configured.
        """
        if not self._fitted:
            raise RuntimeError("call fit() with the candidate texts first")
        tokens = set(self.preprocessor.tokens(query_text))
        overlap: Counter = Counter()
        weighted: Dict[str, float] = defaultdict(float)
        for token in tokens:
            for candidate_id in self._index.get(token, ()):  # inverted index lookup
                overlap[candidate_id] += 1
                weighted[candidate_id] += self._idf.get(token, 1.0) if self.use_idf else 1.0
        block = [cid for cid, count in overlap.items() if count >= self.min_shared_terms]
        block.sort(key=lambda cid: (-weighted[cid], cid))
        if self.max_block_size is not None:
            block = block[: self.max_block_size]
        return block


class MetadataNeighborhoodBlocking:
    """Graph-native blocking: candidates within ``max_hops`` of the query node."""

    def __init__(self, graph: MatchGraph, max_hops: int = 2, max_block_size: Optional[int] = None):
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        _check_max_block_size(max_block_size)
        self.graph = graph
        self.max_hops = max_hops
        self.max_block_size = max_block_size

    def block(self, query_label: str, candidate_labels: Mapping[str, str]) -> List[str]:
        """Candidate object ids whose metadata label is near ``query_label``.

        ``candidate_labels`` maps candidate object id → metadata-node label.
        """
        if not self.graph.has_node(query_label):
            return []
        frontier = {query_label}
        seen = {query_label}
        for _ in range(self.max_hops):
            next_frontier: Set[str] = set()
            for node in frontier:
                for neighbor in self.graph.neighbors(node):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
            if not frontier:
                break
        block = [cid for cid, label in candidate_labels.items() if label in seen]
        if self.max_block_size is not None:
            block = block[: self.max_block_size]
        return block


# ----------------------------------------------------------------------
# QueryBlocker adapters: per-query-id blocks for the retrieval layer.
class TextQueryBlocker:
    """Adapts :class:`TokenBlocking` to the ``QueryBlocker`` interface.

    ``query_texts`` maps query id → text; queries without a text get an
    empty block (triggering the fallback when enabled).
    """

    def __init__(self, blocking: TokenBlocking, query_texts: Mapping[str, str]):
        self.blocking = blocking
        self.query_texts = dict(query_texts)

    def block_for(self, query_id: str) -> List[str]:
        text = self.query_texts.get(query_id, "")
        return self.blocking.block(text) if text else []


class GraphQueryBlocker:
    """Adapts :class:`MetadataNeighborhoodBlocking` to ``QueryBlocker``.

    ``query_labels`` / ``candidate_labels`` map object ids to their
    metadata-node labels in the match graph (the pipeline's
    ``BuiltGraph.first_metadata`` / ``second_metadata``).
    """

    def __init__(
        self,
        blocking: MetadataNeighborhoodBlocking,
        query_labels: Mapping[str, str],
        candidate_labels: Mapping[str, str],
    ):
        self.blocking = blocking
        self.query_labels = dict(query_labels)
        self.candidate_labels = dict(candidate_labels)

    def block_for(self, query_id: str) -> List[str]:
        label = self.query_labels.get(query_id)
        if label is None:
            return []
        return self.blocking.block(label, self.candidate_labels)
