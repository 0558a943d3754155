"""Score-fusion retrieval: the W-RW & S-BE combination of Figure 10.

The paper's best configuration averages the cosine scores of the
domain-specific graph embeddings (W-RW) with those of a frozen pre-trained
sentence encoder (S-BE); each score matrix is min-max normalised per query
row first so methods with different scales contribute equally.

:func:`minmax_normalize_rows` / :func:`combine_scores` normalise and fuse
whole matrices at once (no per-row Python loop).  Constant rows — every
candidate scored identically, so the row carries no ranking signal —
contribute exactly 0 to the fused matrix, matching the reference
behaviour.  :class:`CombinedTopK` fuses any number of score
matrices and reduces the result to top-k in one pass.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.embeddings.similarity import argtopk
from repro.retrieval.base import RetrievalResult, RetrievalStats


def minmax_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Min-max normalise each row to [0, 1]; constant rows map to all-0.

    A constant row has no ranking information, so it is defined to
    contribute 0 (not 0.5 or 1): ``matrix - low`` is identically zero and
    the guarded span division leaves it there.
    """
    matrix = np.asarray(matrix, dtype=float)
    low = matrix.min(axis=1, keepdims=True)
    span = matrix.max(axis=1, keepdims=True) - low
    span[span == 0.0] = 1.0
    return (matrix - low) / span


def combine_scores(
    matrices: Sequence[np.ndarray], weights: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Weighted average of per-row min-max normalised score matrices.

    Every weight must be finite and >= 0, and their sum > 0; anything else
    would turn the average into NaN or ±inf.
    """
    if not len(matrices):
        raise ValueError("at least one score matrix is required")
    shape = matrices[0].shape
    for m in matrices:
        if m.shape != shape:
            raise ValueError("all score matrices must have the same shape")
    if weights is None:
        weights = [1.0] * len(matrices)
    if len(weights) != len(matrices):
        raise ValueError("weights must match the number of matrices")
    weight_array = np.asarray(weights, dtype=float)
    if not np.isfinite(weight_array).all() or (weight_array < 0).any() or weight_array.sum() <= 0:
        raise ValueError(f"weights must be finite and >= 0 with a positive sum, got {weights}")
    total = np.zeros(shape, dtype=float)
    for matrix, weight in zip(matrices, weights):
        total += weight * minmax_normalize_rows(matrix)
    return total / sum(weights)


class CombinedTopK:
    """Top-k over a weighted fusion of several score matrices."""

    name = "combined"

    def __init__(self, weights: Optional[Sequence[float]] = None):
        self.weights = list(weights) if weights is not None else None

    def retrieve_from_scores(
        self, matrices: Sequence[np.ndarray], k: int
    ) -> RetrievalResult:
        """Fuse ``matrices`` and return the per-query top-k of the result."""
        if k < 1:
            raise ValueError("k must be >= 1")
        combined = combine_scores(matrices, weights=self.weights)
        top = argtopk(combined, k)
        top_scores = np.take_along_axis(combined, top, axis=1)
        n_queries, n_candidates = combined.shape
        indices: List[np.ndarray] = list(top)
        scores: List[np.ndarray] = list(top_scores)
        # The fusion itself ranks every pair once; the input matrices were
        # scored upstream, so counting them here would push reduction_ratio
        # below 0 and break the [0, 1] contract of RetrievalStats.
        stats = RetrievalStats(
            backend=self.name,
            n_queries=n_queries,
            n_candidates=n_candidates,
            scored_pairs=n_queries * n_candidates,
        )
        return RetrievalResult(indices=indices, scores=scores, stats=stats)
