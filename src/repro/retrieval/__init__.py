"""Pluggable top-k retrieval backends for the matching step (Section IV-B).

Two embedding-level backends implement the
:class:`~repro.retrieval.base.RetrievalBackend` contract (raw matrices in,
top-k out):

* :class:`~repro.retrieval.dense.DenseTopK` — exact all-pairs cosine,
  chunked matmul with vectorised ``argpartition`` top-k, bounded memory;
* :class:`~repro.retrieval.blocked.BlockedTopK` — scores *only* the pairs a
  :class:`~repro.retrieval.base.QueryBlocker` admits (the paper
  conclusion's blocking future work, actually skipping the work).

A third backend operates at score level (``retrieve_from_scores``) because
its inputs are precomputed score matrices, not embeddings:

* :class:`~repro.retrieval.combined.CombinedTopK` — weighted fusion of
  several score matrices (Figure 10's W-RW & S-BE combination).
"""

from repro.retrieval.base import (
    QueryBlocker,
    RetrievalBackend,
    RetrievalResult,
    RetrievalStats,
)
from repro.retrieval.blocked import BlockedTopK
from repro.retrieval.combined import CombinedTopK, combine_scores, minmax_normalize_rows
from repro.retrieval.dense import DenseTopK

__all__ = [
    "QueryBlocker",
    "RetrievalBackend",
    "RetrievalResult",
    "RetrievalStats",
    "DenseTopK",
    "BlockedTopK",
    "CombinedTopK",
    "combine_scores",
    "minmax_normalize_rows",
]
