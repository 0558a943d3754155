"""Common contract of the retrieval backends (Section IV-B).

The paper's matching step ranks, for every query object, the candidate
objects of the other corpus by cosine similarity of their metadata-node
vectors.  Everything downstream (the pipeline, the matcher, the
benchmark harness) only needs *top-k neighbours per query* plus provenance
about how much work was done — that contract is what this module pins down,
so dense scoring, blocking, score fusion, and future ANN/sharded backends
are interchangeable.

A backend consumes raw (unnormalised) query/candidate embedding matrices
and returns a :class:`RetrievalResult`: per-query candidate indices and
scores ordered by (-score, index), plus :class:`RetrievalStats` recording
the number of (query, candidate) pairs actually scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.eval.ranking import Ranking, RankingSet


@dataclass
class RetrievalStats:
    """How much scoring work a retrieval run performed.

    ``scored_pairs`` counts the (query, candidate) pairs whose similarity
    was actually computed — for a dense backend that is the full cross
    product, for a blocked backend only the blocked (plus fallback) pairs.
    """

    backend: str
    n_queries: int
    n_candidates: int
    scored_pairs: int
    empty_blocks: int = 0

    @property
    def all_pairs(self) -> int:
        return self.n_queries * self.n_candidates

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the all-pairs comparisons avoided (0.0 for dense)."""
        if self.all_pairs == 0:
            return 0.0
        return 1.0 - self.scored_pairs / self.all_pairs


@dataclass
class RetrievalResult:
    """Per-query top-k neighbours: parallel lists of index/score arrays.

    ``indices[q]`` holds candidate *positions* (into the candidate id list)
    ordered by decreasing score with ascending-index tie-break; rows may be
    shorter than ``k`` when a blocked backend found a smaller block.
    """

    indices: List[np.ndarray]
    scores: List[np.ndarray]
    stats: RetrievalStats

    def to_rankings(
        self, query_ids: Sequence[str], candidate_ids: Sequence[str]
    ) -> RankingSet:
        """Decode positional results into a :class:`RankingSet`."""
        if len(query_ids) != len(self.indices):
            raise ValueError("query_ids length must match the result rows")
        rankings = RankingSet()
        for query_id, idx_row, score_row in zip(query_ids, self.indices, self.scores):
            ranking = Ranking(query_id=query_id)
            for i, score in zip(idx_row, score_row):
                ranking.add(candidate_ids[i], float(score))
            rankings.add(ranking)
        return rankings


@runtime_checkable
class RetrievalBackend(Protocol):
    """Anything that can produce top-k neighbours from embedding matrices."""

    name: str

    def retrieve(
        self,
        query_matrix: np.ndarray,
        candidate_matrix: np.ndarray,
        k: int,
        *,
        query_ids: Optional[Sequence[str]] = None,
        candidate_ids: Optional[Sequence[str]] = None,
    ) -> RetrievalResult: ...


@runtime_checkable
class QueryBlocker(Protocol):
    """Per-query candidate blocks, keyed by query id.

    Adapters in :mod:`repro.core.blocking` lift both ``TokenBlocking`` and
    ``MetadataNeighborhoodBlocking`` to this interface so
    :class:`~repro.retrieval.blocked.BlockedTopK` can use either.
    """

    def block_for(self, query_id: str) -> List[str]: ...


def validate_matrices(query_matrix: np.ndarray, candidate_matrix: np.ndarray) -> None:
    if query_matrix.ndim != 2 or candidate_matrix.ndim != 2:
        raise ValueError("query and candidate matrices must be 2-D")
    if query_matrix.shape[1] != candidate_matrix.shape[1]:
        raise ValueError("query and candidate dimensionality differ")


def prepare_matrix(matrix: np.ndarray, dtype: Optional[type]) -> np.ndarray:
    """L2-normalise rows and cast to ``dtype`` (``None`` keeps the input dtype).

    Integer inputs are promoted to float for the normalisation; floating
    inputs keep their precision unless ``dtype`` says otherwise.
    """
    from repro.embeddings.similarity import normalize_rows

    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.floating):
        matrix = matrix.astype(float)
    normalised = normalize_rows(matrix)
    if dtype is not None and normalised.dtype != np.dtype(dtype):
        normalised = normalised.astype(dtype)
    return normalised
