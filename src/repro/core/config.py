"""Configuration objects of the TDmatch pipeline.

The defaults follow the paper's default configuration:

* graph construction with Intersect filtering and n-grams up to 3 tokens;
* 100 random walks of length 30 per node (reducible for small graphs);
* Word2Vec Skip-gram with window 3 for text-to-data tasks, CBOW with window
  15 for text-only tasks;
* expansion and compression disabled unless a knowledge base / ratio is
  supplied.

Every stage runs its fast engine by default.  ``TDMatchConfig.engines`` /
``set_engines`` select engines under one ``{stage: engine}`` vocabulary
(the stages are :data:`ENGINE_STAGES`; every stage accepts
``"reference"``), which is also what the CLI's repeatable
``--engine STAGE=NAME`` flag applies.  ``parallel.num_workers >= 1`` is
the single switch that shards compression's DAG-union sweep and the
Word2Vec epochs across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.embeddings.word2vec import Word2VecConfig
from repro.graph.builder import GraphBuilderConfig
from repro.graph.walks import RandomWalkConfig
from repro.parallel.config import ParallelConfig

#: The unified engine-switch registry: stage name → (config section, field).
#: Historically each stage grew its own switch spelling
#: (``builder.engine``, ``walks.walk_engine``, ``word2vec.trainer``,
#: ``compression.engine``); those field names remain the storage and keep
#: working as documented aliases, while ``TDMatchConfig.engines`` exposes
#: them under one ``{stage: engine}`` vocabulary.
ENGINE_STAGES: Dict[str, Tuple[str, str]] = {
    "graph": ("builder", "engine"),
    "walks": ("walks", "walk_engine"),
    "word2vec": ("word2vec", "trainer"),
    "compression": ("compression", "engine"),
}


@dataclass
class MergeConfig:
    """Node-merging options (Section II-C).

    Parameters
    ----------
    bucket_numeric:
        Merge numeric data nodes with equal-width buckets.
    bucket_width:
        Explicit width; None uses the Freedman–Diaconis rule.
    pretrained:
        A pre-trained embedding resource for synonym/typo merging; None
        disables embedding-based merging.
    gamma:
        Cosine threshold; None calibrates it from ``synonym_pairs``.
    synonym_pairs:
        Calibration pairs for γ (ignored when ``gamma`` is given).
    """

    bucket_numeric: bool = False
    bucket_width: Optional[float] = None
    pretrained: Optional[object] = None
    gamma: Optional[float] = None
    synonym_pairs: Optional[list] = None

    @property
    def merge_embeddings(self) -> bool:
        return self.pretrained is not None


@dataclass
class ExpansionConfig:
    """Graph expansion options (Algorithm 2)."""

    resource: Optional[object] = None
    max_relations_per_node: Optional[int] = None
    remove_sinks: bool = True

    @property
    def enabled(self) -> bool:
        return self.resource is not None


@dataclass
class CompressionConfig:
    """Graph compression options (Algorithm 3).

    ``method`` is one of "msp", "ssp", "ssum", "random-node", "random-edge";
    ``ratio`` is β for MSP/SSP, the target size ratio for SSuM, or the keep
    ratio for the random samplers.  ``enabled`` defaults to False.

    ``engine`` selects the MSP/SSP implementation: "bulk" (default) runs
    multi-source numpy BFS over the cached CSR snapshot and unions the
    shortest-path DAG without enumerating paths; "reference" keeps the
    original per-pair path-enumeration loop (``max_paths_per_pair`` caps
    its enumeration; the bulk engine computes the exact union).  The other
    methods ignore the switch.
    """

    enabled: bool = False
    method: str = "msp"
    ratio: float = 0.5
    max_paths_per_pair: int = 16
    engine: str = "bulk"

    def __post_init__(self) -> None:
        valid = {"msp", "ssp", "ssum", "random-node", "random-edge"}
        if self.method not in valid:
            raise ValueError(f"unknown compression method {self.method!r}; valid: {sorted(valid)}")
        if self.ratio <= 0:
            raise ValueError("compression ratio must be positive")
        if self.max_paths_per_pair < 1:
            raise ValueError("max_paths_per_pair must be >= 1")
        if self.engine not in ("bulk", "reference"):
            raise ValueError(
                f"unknown compression engine {self.engine!r}; valid: ['bulk', 'reference']"
            )


@dataclass
class RetrievalConfig:
    """Matching-step retrieval options (Section IV-B; see :mod:`repro.retrieval`).

    ``backend`` is "dense" (exact chunked all-pairs top-k) or "blocked"
    (score only blocked pairs).  The blocked backend builds the graph-native
    neighbourhood blocker (``max_hops``, ``max_block_size``); token blocking
    needs query/candidate texts, so it is supplied as a ready-made blocker
    to ``TDMatch.match(blocker=...)``.
    ``chunk_size`` bounds dense scoring memory at ``chunk_size ×
    n_candidates`` scores; ``dtype`` "float32" halves memory/doubles matmul
    throughput at the cost of bit-compatibility with the float64 reference.
    """

    backend: str = "dense"
    chunk_size: int = 1024
    dtype: str = "float64"
    max_hops: int = 2
    max_block_size: Optional[int] = None
    fallback_to_full: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("dense", "blocked"):
            raise ValueError(f"unknown retrieval backend {self.backend!r}; valid: ['blocked', 'dense']")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown retrieval dtype {self.dtype!r}; valid: ['float32', 'float64']")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.max_block_size is not None and self.max_block_size < 1:
            raise ValueError("max_block_size must be None or >= 1")


@dataclass
class ServingConfig:
    """Persistent-index serving options (see :mod:`repro.serving`).

    ``mmap`` makes :meth:`TDMatch.load` open the embedding matrices as
    read-only memory maps by default, so N query processes serving the same
    index share the pages instead of each materialising a copy.
    ``include_output_vectors`` keeps Word2Vec's output matrix in the saved
    index; dropping it halves the file but disables warm-start fine-tuning
    on the loaded index.
    """

    mmap: bool = False
    include_output_vectors: bool = True


@dataclass
class IncrementalConfig:
    """Incremental-fit options (``TDMatch.add_documents`` and friends).

    Parameters
    ----------
    epochs:
        Word2Vec fine-tuning epochs over the delta walk corpus; None uses
        the ``word2vec.epochs`` of the pipeline.
    learning_rate:
        Fine-tuning step size; None uses ``word2vec.learning_rate``.
    num_walks:
        Walks per touched start node; None uses ``walks.num_walks``.
    neighborhood_hops:
        How far from the delta's term nodes walk regeneration reaches:
        1 restarts walks from the new nodes and their direct neighbours
        (the documents sharing a term with the delta), 2 adds the
        neighbours' neighbours, and so on.
    freeze_distant:
        Restore the embedding rows of nodes *outside* the touched
        neighbourhood after fine-tuning (default).  Delta walks still pass
        through distant nodes, and letting a few local epochs drag those
        rows degrades the rankings of unrelated queries (catastrophic
        interference); freezing them confines the update to the delta's
        neighbourhood.  Set to False to let the whole space drift.
    """

    epochs: Optional[int] = None
    learning_rate: Optional[float] = None
    num_walks: Optional[int] = None
    neighborhood_hops: int = 1
    freeze_distant: bool = True

    def __post_init__(self) -> None:
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.num_walks is not None and self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.neighborhood_hops < 0:
            raise ValueError("neighborhood_hops must be >= 0")


@dataclass
class TDMatchConfig:
    """Full pipeline configuration."""

    builder: GraphBuilderConfig = field(default_factory=GraphBuilderConfig)
    walks: RandomWalkConfig = field(default_factory=RandomWalkConfig)
    word2vec: Word2VecConfig = field(default_factory=Word2VecConfig)
    merge: MergeConfig = field(default_factory=MergeConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    @property
    def reliability(self):
        """The worker-pool supervision policy (alias of ``parallel.reliability``).

        Stored on :class:`~repro.parallel.config.ParallelConfig` because the
        worker pools consult it there, but exposed at the top level — like
        ``engines`` — since operators tune timeouts/retries next to the rest
        of the pipeline knobs (CLI: ``--task-timeout``, ``--max-retries``,
        ``--no-degrade``).
        """
        return self.parallel.reliability

    @reliability.setter
    def reliability(self, value) -> None:
        self.parallel.reliability = value

    @property
    def engines(self) -> Dict[str, str]:
        """All stage engine switches under one ``{stage: engine}`` view.

        The historical per-stage field names (``builder.engine``,
        ``walks.walk_engine``, ``word2vec.trainer``, ``compression.engine``)
        remain the storage; this property and :meth:`set_engines` are the
        uniform spelling over them.
        """
        return {
            stage: getattr(getattr(self, section), field_name)
            for stage, (section, field_name) in ENGINE_STAGES.items()
        }

    @engines.setter
    def engines(self, mapping: Mapping[str, str]) -> None:
        self.set_engines(mapping)

    def set_engines(self, mapping: Mapping[str, str]) -> "TDMatchConfig":
        """Apply a partial ``{stage: engine}`` mapping (unknown stages raise).

        Values are validated by the per-stage configs exactly as if the
        aliased field had been set directly.
        """
        for stage, engine in mapping.items():
            if stage not in ENGINE_STAGES:
                raise ValueError(
                    f"unknown engine stage {stage!r}; valid: {sorted(ENGINE_STAGES)}"
                )
            section, field_name = ENGINE_STAGES[stage]
            target = getattr(self, section)
            setattr(target, field_name, engine)
            _revalidate(target)
        return self

    @classmethod
    def for_text_to_data(cls, **overrides) -> "TDMatchConfig":
        """Paper defaults for the text-to-data task: Skip-gram, window 3."""
        config = cls()
        config.word2vec.sg = True
        config.word2vec.window = 3
        return _apply_overrides(config, overrides)

    @classmethod
    def for_text_tasks(cls, **overrides) -> "TDMatchConfig":
        """Paper defaults for text-oriented tasks: CBOW, window 15."""
        config = cls()
        config.word2vec.sg = False
        config.word2vec.window = 15
        return _apply_overrides(config, overrides)

    @classmethod
    def fast(cls, **overrides) -> "TDMatchConfig":
        """A reduced configuration for unit tests and small examples."""
        config = cls()
        config.walks.num_walks = 8
        config.walks.walk_length = 12
        config.word2vec.vector_size = 48
        config.word2vec.epochs = 2
        return _apply_overrides(config, overrides)


def _revalidate(section) -> None:
    """Re-run a config section's checks after a field assignment.

    Dataclass field assignment skips ``__post_init__``; without this a bad
    value (say, an unknown engine name) would fail deep inside ``fit()``
    or, for an engine switch, silently select another engine.
    """
    post_init = getattr(section, "__post_init__", None)
    if post_init is not None:
        post_init()


def _apply_overrides(config: TDMatchConfig, overrides: dict) -> TDMatchConfig:
    """Apply ``section__field=value`` style overrides, e.g. walks__num_walks=10.

    ``engines={"walks": "csr", ...}`` is accepted as a uniform override of
    the per-stage engine switches (see :data:`ENGINE_STAGES`).
    """
    for key, value in overrides.items():
        if key == "engines":
            config.set_engines(value)
        elif "__" in key:
            section, field_name = key.split("__", 1)
            target = getattr(config, section)
            if not hasattr(target, field_name):
                raise AttributeError(f"{section} config has no field {field_name!r}")
            setattr(target, field_name, value)
            _revalidate(target)
        else:
            if not hasattr(config, key):
                raise AttributeError(f"TDMatchConfig has no section {key!r}")
            setattr(config, key, value)
    return config
