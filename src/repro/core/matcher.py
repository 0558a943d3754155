"""Unsupervised matching of metadata nodes (Section IV-B).

Given the metadata-node vectors of the two corpora — one id list and one
row-aligned matrix per side, as ``TDMatch.matcher`` gathers them from the
model's embedding matrix — the matcher ranks, for every query object, the
candidate objects of the other corpus by cosine similarity.  The ranking
itself is one call to a pluggable
:class:`~repro.retrieval.base.RetrievalBackend` (dense chunked scoring by
default; blocked scoring via :class:`~repro.retrieval.blocked.BlockedTopK`;
see :mod:`repro.retrieval`).  The matcher also supports averaging its score
matrix with the one of a pre-trained sentence encoder — the combination
evaluated in Figure 10, implemented by
:class:`~repro.retrieval.combined.CombinedTopK`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import cosine_matrix
from repro.eval.ranking import RankingSet
from repro.retrieval import CombinedTopK, DenseTopK, RetrievalStats
from repro.retrieval.base import RetrievalBackend


class MetadataMatcher:
    """Ranks candidate objects for query objects using vector similarity.

    ``query_matrix`` / ``candidate_matrix`` hold one row per id of
    ``query_ids`` / ``candidate_ids``.  ``backend`` selects the retrieval
    implementation; ``None`` uses a :class:`~repro.retrieval.dense.DenseTopK`
    with ``dtype=None`` so scores stay in float64, the precision of the
    reference implementation.
    """

    def __init__(
        self,
        query_ids: Sequence[str],
        query_matrix: np.ndarray,
        candidate_ids: Sequence[str],
        candidate_matrix: np.ndarray,
        backend: Optional[RetrievalBackend] = None,
    ):
        self.query_ids: List[str] = list(query_ids)
        self.candidate_ids: List[str] = list(candidate_ids)
        self._query_matrix = np.asarray(query_matrix, dtype=np.float64)
        self._candidate_matrix = np.asarray(candidate_matrix, dtype=np.float64)
        for side, ids, matrix in (
            ("query", self.query_ids, self._query_matrix),
            ("candidate", self.candidate_ids, self._candidate_matrix),
        ):
            if not ids:
                raise ValueError(f"{side} side is empty")
            if matrix.ndim != 2 or matrix.shape[0] != len(ids):
                raise ValueError(
                    f"{side}_matrix must be 2-D with one row per id, "
                    f"got shape {matrix.shape} for {len(ids)} ids"
                )
        dims = (self._query_matrix.shape[1], self._candidate_matrix.shape[1])
        if dims[0] != dims[1]:
            raise ValueError(f"inconsistent vector dimensionalities: {list(dims)}")
        self.backend: RetrievalBackend = backend if backend is not None else DenseTopK(dtype=None)
        self._scores: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def score_matrix(self) -> np.ndarray:
        """Cosine similarity matrix (queries × candidates), cached.

        Only needed for score-level operations (external combination); the
        top-k path never materialises it.
        """
        if self._scores is None:
            self._scores = cosine_matrix(self._query_matrix, self._candidate_matrix)
        return self._scores

    def match_with_stats(
        self, k: int = 20, backend: Optional[RetrievalBackend] = None
    ) -> Tuple[RankingSet, RetrievalStats]:
        """Top-k ranking per query plus the backend's work statistics."""
        backend = backend if backend is not None else self.backend
        result = backend.retrieve(
            self._query_matrix,
            self._candidate_matrix,
            k,
            query_ids=self.query_ids,
            candidate_ids=self.candidate_ids,
        )
        return result.to_rankings(self.query_ids, self.candidate_ids), result.stats

    def match(self, k: int = 20) -> RankingSet:
        """Top-k ranking per query through the matcher's backend."""
        rankings, _stats = self.match_with_stats(k=k)
        return rankings

    def match_combined(
        self,
        other_scores: np.ndarray,
        k: int = 20,
        weights: Optional[Sequence[float]] = None,
    ) -> RankingSet:
        """Match using the fusion of this matcher's scores and ``other_scores``."""
        if other_scores.shape != (len(self.query_ids), len(self.candidate_ids)):
            raise ValueError("score matrix shape does not match query/candidate ids")
        combined = CombinedTopK(weights=weights)
        result = combined.retrieve_from_scores([self.score_matrix(), other_scores], k=k)
        return result.to_rankings(self.query_ids, self.candidate_ids)
