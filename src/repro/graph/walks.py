"""Random-walk corpus generation (the walk half of Algorithm 4).

For every node of the graph we start ``num_walks`` uniform random walks of
``walk_length`` steps; each walk is serialised as a sentence of node labels.
The union of the sentences is the training corpus of the word-embedding
model.  Related metadata nodes co-occur in walks more often than unrelated
ones, which is what makes their vectors close.

Two engines implement the same walk semantics (identical start-node
multiset, uniform neighbour choice, early stop on isolated nodes):

* ``reference`` — the engine in this module, one step at a time over the
  dict-of-sets adjacency;
* ``csr`` — :class:`~repro.graph.walk_engine.CSRWalkEngine`, which advances
  all walks in lock-step with vectorised draws into a cached CSR snapshot
  (see :mod:`repro.graph.csr`); it is the default and is typically an order
  of magnitude faster.

Within one engine, walks are deterministic under a fixed seed; the two
engines consume randomness differently, so they produce different (but
identically distributed) corpora for the same seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.graph.graph import MatchGraph
from repro.utils.rng import ensure_rng

#: Walk engine names; "reference" is the same reference-twin spelling as every
#: other stage in :data:`repro.core.config.ENGINE_STAGES`.
WALK_ENGINES = ("csr", "reference")


@dataclass
class RandomWalkConfig:
    """Parameters of random-walk generation (paper defaults: 100 × 30).

    Parameters
    ----------
    num_walks:
        Walks started from every node.
    walk_length:
        Number of nodes per walk (the start node included).
    start_nodes:
        Optional restriction of the start nodes; ``None`` starts from every
        node as in the paper's default configuration.
    walk_engine:
        ``"csr"`` (default) for the vectorised engine, ``"reference"`` for
        the step-at-a-time engine.  The CSR engine falls back to the
        reference engine automatically if the snapshot cannot be built.
    """

    num_walks: int = 100
    walk_length: int = 30
    start_nodes: Optional[Sequence[str]] = None
    walk_engine: str = "csr"

    def __post_init__(self) -> None:
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.walk_engine not in WALK_ENGINES:
            raise ValueError(
                f"unknown walk_engine {self.walk_engine!r}; valid: {list(WALK_ENGINES)}"
            )


def resolve_start_nodes(graph: MatchGraph, config: RandomWalkConfig) -> List[str]:
    """The start nodes of one walk round, in deterministic order.

    When ``config.start_nodes`` references labels absent from the graph, a
    :class:`RuntimeWarning` is emitted (once, listing up to five offenders)
    and the walks proceed from the remaining labels.
    """
    if config.start_nodes is None:
        return graph.nodes()
    starts = [label for label in config.start_nodes if graph.has_node(label)]
    missing = [label for label in config.start_nodes if not graph.has_node(label)]
    if missing:
        preview = ", ".join(repr(label) for label in missing[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        warnings.warn(
            f"{len(missing)} start node(s) not in the graph and skipped: "
            f"{preview}{suffix}",
            RuntimeWarning,
            stacklevel=3,
        )
    return starts


def single_walk(graph: MatchGraph, start: str, length: int, rng) -> List[str]:
    """One uniform random walk of ``length`` nodes starting at ``start``.

    The walk stops early if it reaches an isolated node.
    """
    return _walk_from(start, length, rng, lambda label: sorted(graph.neighbors(label)))


def _walk_from(start: str, length: int, rng, options_of) -> List[str]:
    """Walk using ``options_of(label)`` as the ordered neighbour lookup.

    Neighbours are consumed in sorted order rather than raw set order: set
    iteration depends on string hash randomisation, and indexing the raw set
    would make "same seed, same corpus" hold only within one interpreter run.
    """
    walk = [start]
    current = start
    while len(walk) < length:
        options = options_of(current)
        if not options:
            break
        current = options[int(rng.integers(0, len(options)))]
        walk.append(current)
    return walk


def generate_walks(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    seed=None,
) -> List[List[str]]:
    """Generate the full walk corpus (list of sentences of node labels)."""
    return list(iter_walks(graph, config=config, seed=seed))


def iter_walks(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    seed=None,
) -> Iterator[List[str]]:
    """Lazily generate walks with the engine selected by the config.

    ``config.walk_engine`` picks the implementation; both engines yield the
    same number of walks with the same start-node multiset and stop walks at
    isolated nodes identically.
    """
    config = config or RandomWalkConfig()
    # Imported lazily: walk_engine imports this module for the config class.
    from repro.graph.walk_engine import make_walk_engine

    engine = make_walk_engine(graph, config)
    return engine.iter_walks(seed=seed)


def iter_walks_python(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    seed=None,
) -> Iterator[List[str]]:
    """The reference (step-at-a-time) walk generator."""
    config = config or RandomWalkConfig()
    rng = ensure_rng(seed)
    starts = resolve_start_nodes(graph, config)
    # Sort each neighbour set once per corpus, not once per step: the same
    # node is visited num_walks × walk_length times across a generation.
    cache: dict = {}

    def options_of(label: str) -> tuple:
        options = cache.get(label)
        if options is None:
            options = tuple(sorted(graph.neighbors(label)))
            cache[label] = options
        return options

    for _ in range(config.num_walks):
        for start in starts:
            yield _walk_from(start, config.walk_length, rng, options_of)
