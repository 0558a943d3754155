"""Incremental fit: route corpus deltas through the warm pipeline paths.

Instead of rebuilding the graph and retraining embeddings from scratch,
``add_documents`` / ``add_records`` / ``remove``:

1. splice the delta's metadata and term nodes into the existing
   :class:`~repro.graph.graph.MatchGraph` (honouring the filter strategy
   frozen at fit time — an intersect filter's anchor side cannot flip
   mid-stream),
2. regenerate random walks only for start nodes inside the touched CSR
   neighbourhoods (``incremental.neighborhood_hops`` hops around the new
   nodes), and
3. warm-start Word2Vec fine-tuning on that delta walk corpus — existing
   embedding rows are kept, new vocabulary rows are appended.

The result converges to a full refit's ranking quality at a fraction of
the cost; the benchmark suite asserts both properties.

One documented approximation: when the delta lands on the intersect
anchor side, its *new* terms cannot retroactively pull edges from the
other corpus (those texts are not retained after fit), so freshly added
anchor terms connect only to the delta's own objects.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import PipelineError
from repro.graph.builder import COLUMN_PREFIX, CONCEPT_PREFIX, DOC_PREFIX, ROW_PREFIX
from repro.graph.csr import csr_adjacency, gather_neighbors
from repro.graph.walk_engine import make_walk_engine
from repro.utils.rng import derive_rng

_ROLE_BY_PREFIX = {
    ROW_PREFIX: "tuple",
    DOC_PREFIX: "document",
    CONCEPT_PREFIX: "concept",
}


def _metadata_map(built, side: str) -> Dict[str, str]:
    if side == "first":
        return built.first_metadata
    if side == "second":
        return built.second_metadata
    raise ValueError("side must be 'first' or 'second'")


def _label_prefix(mapping: Dict[str, str], side: str) -> str:
    """Recover the metadata label prefix of a side from its id → label map."""
    for object_id, label in mapping.items():
        if label.endswith(object_id):
            return label[: len(label) - len(object_id)]
    raise PipelineError(
        f"cannot determine the metadata label scheme of the {side} corpus; "
        "incremental fit needs at least one object on that side from fit time"
    )


def _coerce_documents(documents: Iterable) -> List[Tuple[str, str]]:
    """Accept Document objects or ``(doc_id, text)`` pairs."""
    pairs = []
    for doc in documents:
        if hasattr(doc, "doc_id") and hasattr(doc, "text"):
            pairs.append((str(doc.doc_id), doc.text))
        else:
            doc_id, text = doc
            pairs.append((str(doc_id), text))
    return pairs


def _coerce_records(records: Iterable) -> List[Tuple[str, Dict[str, object]]]:
    """Accept Row objects or ``(row_id, {column: value})`` pairs."""
    out = []
    for record in records:
        if hasattr(record, "row_id") and hasattr(record, "values"):
            out.append((str(record.row_id), dict(record.values)))
        else:
            row_id, values = record
            out.append((str(row_id), dict(values)))
    return out


def _check_corpus_kind(pipeline, side: str, kind: str) -> None:
    """Refuse a delta whose objects are not of the side's fitted corpus kind.

    Indexes written before corpus kinds were saved carry none and skip the
    check; an invalid side name fails later, in :func:`_metadata_map`.
    """
    kinds = pipeline._corpus_kinds
    if not kinds or side not in ("first", "second"):
        return
    fitted = kinds[0] if side == "first" else kinds[1]
    if fitted != kind:
        raise PipelineError(
            f"the {side} corpus was fitted as a {fitted}, so it cannot take "
            f"{kind} objects; nothing was applied"
        )


def _unique_ids(object_ids: Iterable, side: str) -> List[str]:
    """The batch's ids as strings; a repeated id fails the whole batch."""
    ids = [str(object_id) for object_id in object_ids]
    seen = set()
    for object_id in ids:
        if object_id in seen:
            raise PipelineError(
                f"{side}-side object id {object_id!r} appears twice in one batch; "
                "nothing was applied"
            )
        seen.add(object_id)
    return ids


# ----------------------------------------------------------------------
# Graph deltas
def add_documents(pipeline, documents: Iterable, side: str = "second") -> List[str]:
    """Splice new text documents into a fitted pipeline.

    Returns the metadata labels of the added documents.  ``documents`` may
    be :class:`~repro.corpus.documents.Document` objects or
    ``(doc_id, text)`` pairs.  Only a side fitted from a text corpus
    takes documents.
    """
    _check_corpus_kind(pipeline, side, "text")
    preprocessor = pipeline._graph_builder()._preprocessor
    objects = [
        (doc_id, preprocessor.terms(text), {})
        for doc_id, text in _coerce_documents(documents)
    ]
    return _apply_delta(pipeline, side, objects)


def add_records(pipeline, records: Iterable, side: str = "second") -> List[str]:
    """Splice new table rows into a fitted pipeline.

    Returns the metadata labels of the added rows.  ``records`` may be
    :class:`~repro.corpus.table.Row` objects or ``(row_id, values_dict)``
    pairs.  Terms also connect to the side's column nodes when the row's
    columns were present at fit time; cells of unseen columns still feed
    the row's own term edges.  Only a side fitted from a table takes rows.
    """
    _check_corpus_kind(pipeline, side, "table")
    preprocessor = pipeline._graph_builder()._preprocessor
    objects = []
    for row_id, values in _coerce_records(records):
        items = [(col, value) for col, value in values.items() if value is not None]
        terms = preprocessor.terms_of_values([str(value) for _, value in items])
        per_column = {
            col: preprocessor.terms(str(value)) for col, value in items
        }
        objects.append((row_id, terms, per_column))
    return _apply_delta(pipeline, side, objects)


def remove(pipeline, object_ids: Iterable[str], side: str = "second") -> List[str]:
    """Remove objects (and their metadata nodes) from a fitted pipeline.

    Term nodes stay — other objects may share them — and the removed
    labels keep their (now unreachable) embedding rows.  Returns the
    removed metadata labels.  All or nothing: an unknown or repeated id
    fails the call before any object is removed.
    """
    state = pipeline.state
    mapping = _metadata_map(state.built, side)
    removed = []
    with pipeline.timings.measure("incremental_remove"):
        graph = state.built.graph
        ids = _unique_ids(object_ids, side)
        for object_id in ids:
            if object_id not in mapping:
                raise PipelineError(
                    f"unknown {side}-side object id {object_id!r}; nothing removed"
                )
        for object_id in ids:
            label = mapping.pop(object_id)
            if label in graph:
                graph.remove_node(label)
            removed.append(label)
    return removed


def _apply_delta(pipeline, side, objects) -> List[str]:
    """Insert ``(object_id, terms, per_column_terms)`` objects, then refresh.

    All or nothing: every id is checked against the metadata map, the graph
    and the rest of the batch before anything is mutated, and a failed
    embedding refresh rolls the splice back.
    """
    state = pipeline.state
    built = state.built
    mapping = _metadata_map(built, side)
    filter_name = pipeline.config.builder.filter_strategy_name
    if filter_name == "tfidf":
        raise PipelineError(
            "incremental fit is not supported with the tfidf filter strategy: "
            "adding documents changes every term's document frequency, which "
            "would invalidate the fit-time keep/drop decisions — refit instead"
        )
    # An intersect filter froze which side anchors the shared-term test at
    # fit time; only that side may introduce new term nodes afterwards.
    allow_new_terms = filter_name == "normal" or (
        filter_name == "intersect" and side == built.intersect_anchor
    )
    prefix = _label_prefix(mapping, side)
    role = _ROLE_BY_PREFIX.get(prefix, "document")
    graph = built.graph
    ids = _unique_ids((object_id for object_id, _terms, _per_column in objects), side)
    for object_id in ids:
        if object_id in mapping or f"{prefix}{object_id}" in graph:
            raise PipelineError(
                f"{side}-side object id {object_id!r} already exists; "
                "remove() it first to replace its contents"
            )

    column_labels = _column_labels_of(graph, side) if role == "tuple" else {}

    new_labels: List[str] = []
    with pipeline.timings.measure("incremental_graph"):
        node_labels: List[str] = []
        node_roles: List[str] = []
        node_corpora: List[str] = []
        node_kinds: List[str] = []
        edges_u: List[str] = []
        edges_v: List[str] = []
        seen_new_terms = set()
        for object_id, (_, terms, per_column) in zip(ids, objects):
            label = f"{prefix}{object_id}"
            node_labels.append(label)
            node_roles.append(role)
            node_corpora.append(side)
            node_kinds.append("metadata")
            kept_terms = []
            for term in terms:
                known = term in graph or term in seen_new_terms
                if not known and not allow_new_terms:
                    continue
                if not known:
                    seen_new_terms.add(term)
                    node_labels.append(term)
                    node_roles.append("term")
                    node_corpora.append(side)
                    node_kinds.append("data")
                kept_terms.append(term)
                edges_u.append(label)
                edges_v.append(term)
            kept_set = set(kept_terms)
            for column, col_terms in per_column.items():
                col_label = column_labels.get(column)
                if col_label is None:
                    continue
                for term in col_terms:
                    if term in kept_set:
                        edges_u.append(col_label)
                        edges_v.append(term)
            new_labels.append(label)
        if node_labels:
            from repro.graph.graph import NodeKind

            graph.add_nodes_bulk(
                node_labels,
                kind=[NodeKind(k) for k in node_kinds],
                corpus=node_corpora,
                role=node_roles,
            )
        if edges_u:
            graph.add_edges_bulk(np.array(edges_u, dtype=object),
                                 np.array(edges_v, dtype=object))
        mapping.update(zip(ids, new_labels))

    pipeline._delta_count += 1
    try:
        _refresh_embeddings(pipeline, new_labels)
    except BaseException:
        # Roll the splice back: a failed refresh (e.g. an index saved
        # without output vectors) must not leave graph nodes and metadata
        # mappings behind that have no embedding rows — a retried delta or
        # a subsequent match() would see a half-applied batch.
        for label in node_labels:
            if label in graph:
                graph.remove_node(label)
        for object_id in ids:
            mapping.pop(object_id, None)
        pipeline._delta_count -= 1
        raise
    return new_labels


def _column_labels_of(graph, side: str) -> Dict[str, str]:
    """Map fit-time column names of a side to their graph labels."""
    labels: Dict[str, str] = {}
    for label in graph.metadata_nodes(corpus=side, role="column"):
        body = label[len(COLUMN_PREFIX):]
        if "::" in body:
            labels[body.split("::", 1)[1]] = label
    return labels


# ----------------------------------------------------------------------
# Walk regeneration + warm-started training
def _refresh_embeddings(pipeline, new_labels: Sequence[str]) -> None:
    """Re-walk the touched neighbourhood and fine-tune the model on it."""
    if not new_labels:
        return
    state = pipeline.state
    model = state.model
    if model._output_vectors is None:
        raise PipelineError(
            "this index was saved without output vectors "
            "(serving.include_output_vectors=False); incremental fit needs "
            "them to continue training — refit or re-save with output vectors"
        )
    graph = state.built.graph
    config = pipeline.config

    with pipeline.timings.measure("incremental_walks"):
        csr = csr_adjacency(graph)
        touched = np.zeros(len(csr.labels), dtype=bool)
        frontier = np.array(
            [csr.ids[label] for label in new_labels if label in csr.ids],
            dtype=np.int64,
        )
        touched[frontier] = True
        for _ in range(config.incremental.neighborhood_hops):
            if frontier.size == 0:
                break
            _, neighbors = gather_neighbors(csr, frontier)
            fresh = np.unique(neighbors[~touched[neighbors]]) if neighbors.size else neighbors
            touched[fresh] = True
            frontier = fresh
        start_labels = [csr.labels[i] for i in np.flatnonzero(touched)]
        walk_config = dataclasses.replace(
            config.walks,
            start_nodes=start_labels,
            num_walks=config.incremental.num_walks or config.walks.num_walks,
        )
        engine = make_walk_engine(graph, walk_config)
        seed = derive_rng(pipeline.seed, f"walks-delta-{pipeline._delta_count}")
        sentences = list(engine.iter_walks(seed=seed))

    with pipeline.timings.measure("incremental_word2vec"):
        freeze = config.incremental.freeze_distant
        old_size = len(model.vocab)
        if freeze:
            # Delta walks also traverse distant nodes; snapshot the matrices
            # so their rows can be pinned back afterwards (interference
            # confinement — see IncrementalConfig.freeze_distant).
            snapshot_in = np.array(model._input_vectors, copy=True)
            snapshot_out = np.array(model._output_vectors, copy=True)
        model.fine_tune(
            sentences,
            epochs=config.incremental.epochs,
            learning_rate=config.incremental.learning_rate,
        )
        if freeze:
            tunable = np.zeros(old_size, dtype=bool)
            for label in start_labels:
                token_id = model.vocab.id_of(label)
                if token_id is not None and token_id < old_size:
                    tunable[token_id] = True
            frozen = ~tunable
            model._input_vectors[:old_size][frozen] = snapshot_in[frozen]
            model._output_vectors[:old_size][frozen] = snapshot_out[frozen]
