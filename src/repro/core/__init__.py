"""Core of the reproduction: the TDmatch unsupervised matching pipeline."""

from repro.core.config import (
    ENGINE_STAGES,
    CompressionConfig,
    ExpansionConfig,
    IncrementalConfig,
    MergeConfig,
    RetrievalConfig,
    ServingConfig,
    TDMatchConfig,
)
from repro.core.blocking import (
    GraphQueryBlocker,
    MetadataNeighborhoodBlocking,
    TextQueryBlocker,
    TokenBlocking,
)
from repro.core.downstream import EmbeddingPairClassifier
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.matcher import MetadataMatcher
from repro.core.pipeline import MatchResult, TDMatch

__all__ = [
    "TDMatchConfig",
    "MergeConfig",
    "ExpansionConfig",
    "CompressionConfig",
    "ServingConfig",
    "IncrementalConfig",
    "ENGINE_STAGES",
    "TDMatch",
    "MatchResult",
    "MetadataMatcher",
    "RetrievalConfig",
    "TokenBlocking",
    "MetadataNeighborhoodBlocking",
    "TextQueryBlocker",
    "GraphQueryBlocker",
    "EmbeddingPairClassifier",
    "NotFittedError",
    "PipelineError",
]
