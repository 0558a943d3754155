"""Which calls the traced run wraps, and the per-layer metrics derived from them.

Each target is wrapped at the binding its caller looks up:
``repro.core.pipeline`` imports ``expand_graph``, ``msp_compress`` and
``make_walk_engine`` by name, so those are wrapped in the pipeline module;
``run_pair_batches`` reaches ``pair_update`` and ``segment_scatter_add``
through the globals of ``repro.embeddings.word2vec``; ``TDMatch.save`` /
``load`` / ``add_documents`` / ``remove`` import their implementation from
the serving modules at call time; methods are wrapped on their class.

Metric names follow the module that does the work (``graph.builder.build_s``
is ``repro.graph.builder``).  A metric whose every wrap target is missing is
reported as absent (value 0); one whose targets exist but were never called
in the traced pass is reported as idle (value 0).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from tracer import Tracer

# Span names.
BUILD = "graph.builder.build"
EXPAND = "graph.expansion.expand"
COMPRESS = "graph.compression.compress"
WALK_MAKE = "graph.walk_engine.make"
WALK_NEXT = "graph.walk_engine.next"
TRAIN = "embeddings.word2vec.train"
FINE_TUNE = "embeddings.word2vec.fine_tune"
BATCHES = "embeddings.word2vec.run_pair_batches"
PAIR_UPDATE = "embeddings.word2vec.pair_update"
SCATTER = "embeddings.word2vec.segment_scatter_add"
SAMPLE = "embeddings.sampling.sample"
VOCAB = "embeddings.vocab.from_sentences"
METADATA = "core.pipeline.metadata_vectors"
RESTACK = "core.matcher.restack"
RETRIEVE = "retrieval.dense.retrieve"
TO_RANKINGS = "retrieval.base.to_rankings"
SAVE = "serving.index.save"
LOAD = "serving.index.load"
MATERIALIZE = "serving.index.materialize"
ADD = "serving.incremental.add_documents"
REMOVE = "serving.incremental.remove"


def _graph_counts(_args, _kwargs, built) -> Dict[str, float]:
    return {"nodes": built.graph.num_nodes(), "edges": built.graph.num_edges()}


def _compression_counts(_args, _kwargs, result) -> Dict[str, float]:
    return {
        "nodes_before": result.nodes_before,
        "nodes_after": result.nodes_after,
        "edges_before": result.edges_before,
        "edges_after": result.edges_after,
    }


def _batch_counts(args, kwargs, _step) -> Dict[str, float]:
    in_ids = args[2] if len(args) > 2 else kwargs["in_ids"]
    batch_size = args[5] if len(args) > 5 else kwargs["batch_size"]
    pairs = int(in_ids.shape[0])
    return {"pairs": pairs, "batches": -(-pairs // int(batch_size))}


def _walk_counts(walk) -> Dict[str, float]:
    return {"walks": 1, "tokens": len(walk)}


def install(tracer: Tracer) -> Dict[str, List[str]]:
    """Wrap every target; returns span name → the wrap targets found missing."""

    def traced_engine(engine):
        iter_walks = engine.iter_walks

        def traced_iter_walks(*args, **kwargs):
            return tracer.iterate(WALK_NEXT, iter_walks(*args, **kwargs), count=_walk_counts)

        engine.iter_walks = traced_iter_walks
        return engine

    w2v = "repro.embeddings.word2vec"
    targets: List[Tuple[str, str, str, dict]] = [
        ("repro.graph.builder", "GraphBuilder.build", BUILD, {"count": _graph_counts}),
        ("repro.core.pipeline", "expand_graph", EXPAND,
         {"count": lambda a, k, r: {"edges_added": r.edges_added}}),
        ("repro.core.pipeline", "msp_compress", COMPRESS,
         {"count": _compression_counts, "rss": True}),
        ("repro.core.pipeline", "make_walk_engine", WALK_MAKE, {"result_hook": traced_engine}),
        ("repro.serving.incremental", "make_walk_engine", WALK_MAKE,
         {"result_hook": traced_engine}),
        (w2v, "Word2Vec.train", TRAIN, {}),
        (w2v, "Word2Vec.fine_tune", FINE_TUNE, {}),
        (w2v, "run_pair_batches", BATCHES, {"count": _batch_counts}),
        (w2v, "pair_update", PAIR_UPDATE, {"aggregate": True}),
        (w2v, "segment_scatter_add", SCATTER, {"aggregate": True}),
        ("repro.embeddings.sampling", "AliasSampler.sample", SAMPLE, {}),
        ("repro.embeddings.vocab", "Vocabulary.from_sentences", VOCAB, {}),
        ("repro.core.pipeline", "TDMatch.metadata_vectors", METADATA, {}),
        ("repro.core.matcher", "MetadataMatcher.__init__", RESTACK, {}),
        ("repro.retrieval.dense", "DenseTopK.retrieve", RETRIEVE,
         {"count": lambda a, k, r: {"scored_pairs": r.stats.scored_pairs}}),
        ("repro.retrieval.base", "RetrievalResult.to_rankings", TO_RANKINGS, {}),
        ("repro.serving.index", "save_pipeline", SAVE,
         {"count": lambda a, k, path: {"bytes": os.path.getsize(path)}}),
        ("repro.serving.index", "load_pipeline", LOAD, {}),
        ("repro.serving.index", "_materialize_graph", MATERIALIZE, {}),
        ("repro.serving.incremental", "add_documents", ADD, {}),
        ("repro.serving.incremental", "remove", REMOVE, {}),
    ]
    missing: Dict[str, List[str]] = {}
    present = set()
    for module, qualname, name, options in targets:
        if tracer.wrap(module, qualname, name, **options):
            present.add(name)
        else:
            missing.setdefault(name, []).append(f"{module}.{qualname}")
    if WALK_MAKE not in present:
        missing[WALK_NEXT] = list(missing[WALK_MAKE])
    # A span name is absent only when none of its targets could be wrapped.
    return {name: gone for name, gone in missing.items() if name not in present}


#: Per-layer metric → (unit, span names it is derived from).
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "graph.builder.build_s": ("s", (BUILD,)),
    "graph.builder.nodes": ("count", (BUILD,)),
    "graph.builder.edges": ("count", (BUILD,)),
    "graph.expansion.expand_s": ("s", (EXPAND,)),
    "graph.expansion.edges_added": ("count", (EXPAND,)),
    "graph.compression.compress_s": ("s", (COMPRESS,)),
    "graph.compression.nodes_kept_ratio": ("1", (COMPRESS,)),
    "graph.compression.edges_kept_ratio": ("1", (COMPRESS,)),
    "graph.compression.peak_rss_growth_mb": ("MB", (COMPRESS,)),
    "graph.walk_engine.walks_s": ("s", (WALK_MAKE, WALK_NEXT)),
    "graph.walk_engine.walks": ("count", (WALK_NEXT,)),
    "graph.walk_engine.tokens": ("count", (WALK_NEXT,)),
    "embeddings.word2vec.train_self_s": ("s", (TRAIN,)),
    "embeddings.word2vec.batches_s": ("s", (BATCHES,)),
    "embeddings.word2vec.pair_update_s": ("s", (PAIR_UPDATE,)),
    "embeddings.word2vec.scatter_s": ("s", (SCATTER,)),
    "embeddings.word2vec.unattributed_s": ("s", (TRAIN, FINE_TUNE)),
    "embeddings.word2vec.pairs": ("count", (BATCHES,)),
    "embeddings.word2vec.batches": ("count", (BATCHES,)),
    "embeddings.word2vec.pairs_per_s": ("1/s", (BATCHES,)),
    "embeddings.word2vec.fine_tune_s": ("s", (FINE_TUNE,)),
    "embeddings.word2vec.fit_share": ("1", (TRAIN,)),
    "embeddings.sampling.sample_s": ("s", (SAMPLE,)),
    "embeddings.vocab.build_s": ("s", (VOCAB,)),
    "core.pipeline.metadata_vectors_s": ("s", (METADATA,)),
    "core.matcher.restack_s": ("s", (RESTACK,)),
    "retrieval.dense.retrieve_s": ("s", (RETRIEVE,)),
    "retrieval.base.to_rankings_s": ("s", (TO_RANKINGS,)),
    "retrieval.scored_pairs": ("count", (RETRIEVE,)),
    "serving.index.save_s": ("s", (SAVE,)),
    "serving.index.load_s": ("s", (LOAD,)),
    "serving.index.bytes": ("B", (SAVE,)),
    "serving.index.materialize_s": ("s", (MATERIALIZE,)),
    "serving.incremental.add_documents_s": ("s", (ADD,)),
    "serving.incremental.remove_s": ("s", (REMOVE,)),
    "serving.incremental.unattributed_s": ("s", (ADD, REMOVE)),
    # Whole-trace figures: the root spans' own time (inside the public API
    # call but outside every wrapped layer), the traced wall time, the span
    # count, and the tracing overhead against the untraced pass.
    "trace.unattributed_s": ("s", ()),
    "trace.wall_s": ("s", ()),
    "trace.spans": ("count", ()),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_ratio": ("1", ()),
    "trace.fit_overhead_s": ("s", ()),
}


def derive(tracer: Tracer, absent: Dict[str, List[str]]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer values from the recorded spans, and a status for each zero.

    The status maps a metric to ``"absent"`` (no wrap target exists) or
    ``"idle"`` (targets exist but this workload's traced pass never called
    them).  The ``trace.overhead*`` figures are filled in by the caller.
    """
    rows = tracer.by_name()

    def row(name):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counters": {}})

    def self_s(*names):
        return sum(row(name)["self_s"] for name in names)

    def incl_s(name):
        return row(name)["incl_s"]

    def counter(name, key):
        return row(name)["counters"].get(key, 0.0)

    def per_call(name, key):
        calls = row(name)["calls"]
        return counter(name, key) / calls if calls else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    fit_wall = tracer.by_op().get("fit", {}).get("wall_s", 0.0)
    w2v_in_fits = incl_s(TRAIN) - tracer.incl_under(WALK_NEXT, TRAIN)
    roots = tracer.roots()
    values = {
        "graph.builder.build_s": self_s(BUILD),
        "graph.builder.nodes": per_call(BUILD, "nodes"),
        "graph.builder.edges": per_call(BUILD, "edges"),
        "graph.expansion.expand_s": self_s(EXPAND),
        "graph.expansion.edges_added": per_call(EXPAND, "edges_added"),
        "graph.compression.compress_s": self_s(COMPRESS),
        "graph.compression.nodes_kept_ratio": ratio(
            counter(COMPRESS, "nodes_after"), counter(COMPRESS, "nodes_before")
        ),
        "graph.compression.edges_kept_ratio": ratio(
            counter(COMPRESS, "edges_after"), counter(COMPRESS, "edges_before")
        ),
        "graph.compression.peak_rss_growth_mb": counter(COMPRESS, "rss_growth_mb_max"),
        "graph.walk_engine.walks_s": self_s(WALK_MAKE, WALK_NEXT),
        "graph.walk_engine.walks": counter(WALK_NEXT, "walks"),
        "graph.walk_engine.tokens": counter(WALK_NEXT, "tokens"),
        "embeddings.word2vec.train_self_s": w2v_in_fits,
        "embeddings.word2vec.batches_s": self_s(BATCHES),
        "embeddings.word2vec.pair_update_s": self_s(PAIR_UPDATE),
        "embeddings.word2vec.scatter_s": self_s(SCATTER),
        "embeddings.word2vec.unattributed_s": self_s(TRAIN, FINE_TUNE),
        "embeddings.word2vec.pairs": counter(BATCHES, "pairs"),
        "embeddings.word2vec.batches": counter(BATCHES, "batches"),
        "embeddings.word2vec.pairs_per_s": ratio(counter(BATCHES, "pairs"), incl_s(BATCHES)),
        "embeddings.word2vec.fine_tune_s": incl_s(FINE_TUNE),
        "embeddings.word2vec.fit_share": ratio(w2v_in_fits, fit_wall),
        "embeddings.sampling.sample_s": self_s(SAMPLE),
        "embeddings.vocab.build_s": self_s(VOCAB),
        "core.pipeline.metadata_vectors_s": self_s(METADATA),
        "core.matcher.restack_s": self_s(RESTACK),
        "retrieval.dense.retrieve_s": self_s(RETRIEVE),
        "retrieval.base.to_rankings_s": self_s(TO_RANKINGS),
        "retrieval.scored_pairs": counter(RETRIEVE, "scored_pairs"),
        "serving.index.save_s": self_s(SAVE),
        "serving.index.load_s": self_s(LOAD),
        "serving.index.bytes": per_call(SAVE, "bytes"),
        "serving.index.materialize_s": self_s(MATERIALIZE),
        "serving.incremental.add_documents_s": incl_s(ADD),
        "serving.incremental.remove_s": incl_s(REMOVE),
        "serving.incremental.unattributed_s": self_s(ADD, REMOVE),
        "trace.unattributed_s": sum(span.self_s for span in roots),
        "trace.wall_s": sum(span.total for span in roots),
        "trace.spans": float(len(tracer.spans)),
    }
    status: Dict[str, str] = {}
    for metric, (_unit, spans) in PER_LAYER.items():
        if not spans:
            continue
        if all(name in absent for name in spans):
            status[metric] = "absent"
        elif all(row(name)["calls"] == 0 for name in spans):
            status[metric] = "idle"
    return values, status
