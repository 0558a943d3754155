"""Graph creation over heterogeneous corpora (Algorithm 1 of the paper).

The builder accepts any two corpora among :class:`~repro.corpus.table.Table`,
:class:`~repro.corpus.documents.TextCorpus`, and
:class:`~repro.corpus.taxonomy.Taxonomy` and produces a
:class:`~repro.graph.graph.MatchGraph` in which

* every document of the first corpus becomes a metadata node, plus a
  metadata node per column when the first corpus is a table, plus
  metadata-metadata edges for taxonomy parents;
* data nodes are created for the terms of the documents, subject to the
  configured :class:`~repro.graph.filtering.FilterStrategy`;
* every document of the second corpus becomes a metadata node connected to
  the data nodes of its (retained) terms.

Metadata labels are prefixed (``row::``, ``col::``, ``doc::``, ``concept::``)
so that a term can never collide with a document identifier.

Two construction engines implement Algorithm 1 with identical output:

``bulk`` (default)
    Interns every distinct cell value / sentence once
    (:class:`~repro.text.preprocess.TermInterner`), filters interned id
    arrays with vectorised masks, emits nodes and deduped edge arrays in a
    handful of bulk calls, and primes the graph's CSR walk snapshot
    directly from the edge arrays so the walk engine never re-interns
    labels.

``reference``
    The original per-term loop, kept for parity testing (the PR 1 / PR 3
    pattern).

Both engines produce the same nodes *in the same insertion order*, the same
node metadata, and the same edge set — insertion order fixes the CSR node
ids, so a seeded pipeline run is identical under either engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.corpus.documents import TextCorpus
from repro.corpus.table import Table
from repro.corpus.taxonomy import Taxonomy
from repro.graph.csr import build_csr_from_edges, prime_csr_cache
from repro.graph.filtering import (
    FilterStatistics,
    FilterStrategy,
    IntersectFilter,
    NoFilter,
    make_bulk_filter,
)
from repro.graph.graph import MatchGraph, NodeKind, dedup_edge_ids
from repro.text.preprocess import PreprocessConfig, Preprocessor, TermInterner

Corpus = Union[Table, TextCorpus, Taxonomy]

GRAPH_ENGINES = ("bulk", "reference")


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    """Concatenate id arrays, tolerating the all-empty case."""
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


@dataclass
class _TableCells:
    """Flattened cell structure of a first-corpus table.

    One entry per (cell, term) instance: the row number, the column
    registry index, and the interned term id.  ``col_names`` is the column
    registry in first-use order; ``cols_new_in_row`` lists, per row, the
    registry indices first used by that row (these become the column
    metadata nodes emitted right after the row's own node).
    """

    cell_row: np.ndarray
    cell_col: np.ndarray
    cell_term: np.ndarray
    col_names: List[str]
    cols_new_in_row: List[List[int]]

ROW_PREFIX = "row::"
COLUMN_PREFIX = "col::"
DOC_PREFIX = "doc::"
CONCEPT_PREFIX = "concept::"


def metadata_label(corpus: Corpus, object_id: str, corpus_name: str = "") -> str:
    """The metadata-node label used in the graph for ``object_id``."""
    prefix = DOC_PREFIX
    if isinstance(corpus, Table):
        prefix = ROW_PREFIX
    elif isinstance(corpus, Taxonomy):
        prefix = CONCEPT_PREFIX
    qualifier = f"{corpus_name}::" if corpus_name else ""
    return f"{prefix}{qualifier}{object_id}"


def strip_metadata_label(label: str, corpus_name: str = "") -> str:
    """Return the original object id of a metadata label.

    Inverse of :func:`metadata_label` for any object id: the kind prefix is
    dropped, and the corpus qualifier only when the caller names it
    (``corpus_name`` must match how the label was built).  Object ids are
    free to contain ``::`` themselves — an unqualified ``doc::a::b`` strips
    to ``a::b``, not ``b``, so the roundtrip
    ``strip_metadata_label(metadata_label(c, oid, name), name) == oid``
    holds unconditionally.
    """
    for prefix in (ROW_PREFIX, COLUMN_PREFIX, DOC_PREFIX, CONCEPT_PREFIX):
        if label.startswith(prefix):
            rest = label[len(prefix):]
            qualifier = f"{corpus_name}::" if corpus_name else ""
            if qualifier and rest.startswith(qualifier):
                rest = rest[len(qualifier):]
            return rest
    return label


@dataclass
class GraphBuilderConfig:
    """Configuration of graph construction.

    Parameters
    ----------
    preprocess:
        Text pre-processing options (n-gram size, stemming, ...).
    filter_strategy_name:
        "intersect" (paper default), "tfidf", or "normal".
    tfidf_top_k:
        Top-k terms per document for the TF-IDF filter.
    connect_structured_metadata:
        Add edges between related metadata nodes of a structured corpus
        (taxonomy parent/child); the ablation of Section V-F2 turns this off.
    add_column_nodes:
        Create a metadata node per table column (Algorithm 1 lines 5-10).
    engine:
        "bulk" (default) for the vectorised single-pass construction engine,
        "reference" for the original per-term loop (parity testing).
    """

    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    filter_strategy_name: str = "intersect"
    tfidf_top_k: int = 10
    connect_structured_metadata: bool = True
    add_column_nodes: bool = True
    engine: str = "bulk"

    def __post_init__(self) -> None:
        if self.tfidf_top_k < 1:
            raise ValueError("tfidf_top_k must be >= 1")
        if self.engine not in GRAPH_ENGINES:
            raise ValueError(
                f"unknown graph engine {self.engine!r}; valid: {list(GRAPH_ENGINES)}"
            )

    def make_filter(self) -> FilterStrategy:
        if self.filter_strategy_name == "intersect":
            return IntersectFilter()
        if self.filter_strategy_name == "normal":
            return NoFilter()
        if self.filter_strategy_name == "tfidf":
            from repro.graph.filtering import TfIdfFilter

            return TfIdfFilter(top_k=self.tfidf_top_k)
        raise ValueError(f"unknown filter strategy: {self.filter_strategy_name!r}")


@dataclass
class BuiltGraph:
    """The output of :class:`GraphBuilder`.

    Attributes
    ----------
    graph:
        The constructed :class:`MatchGraph`.
    first_metadata / second_metadata:
        Mapping from original object id to its metadata-node label, for the
        first and second corpus respectively (documents only; column nodes
        are not included).
    filter_stats:
        What the filter strategy kept / dropped (identical across engines).
    engine:
        The construction engine that produced the graph.
    intersect_anchor:
        Which corpus ("first"/"second") provided the Intersect-filter
        vocabulary, or None for other strategies.  Incremental fit
        (:mod:`repro.serving`) freezes this so later deltas cannot flip
        the anchor side mid-life of an index.
    """

    graph: MatchGraph
    first_metadata: Dict[str, str]
    second_metadata: Dict[str, str]
    filter_stats: Optional[FilterStatistics] = None
    engine: str = "reference"
    intersect_anchor: Optional[str] = None

    def first_labels(self) -> List[str]:
        return list(self.first_metadata.values())

    def second_labels(self) -> List[str]:
        return list(self.second_metadata.values())

    def size(self) -> Tuple[int, int]:
        """``(nodes, edges)`` of the graph."""
        return self.graph.num_nodes(), self.graph.num_edges()


class GraphBuilder:
    """Builds the joint graph for two corpora (Algorithm 1)."""

    def __init__(self, config: Optional[GraphBuilderConfig] = None):
        self.config = config or GraphBuilderConfig()
        self._preprocessor = Preprocessor(self.config.preprocess)
        # The interner persists across build() calls, like the stemmer
        # cache of the preprocessor: re-building over the same or
        # overlapping corpora (parameter sweeps, incremental scales) skips
        # the tokenize→stem→n-gram work for every value seen before.
        self._interner = TermInterner(self._preprocessor)

    # ------------------------------------------------------------------
    def build(self, first: Corpus, second: Corpus) -> BuiltGraph:
        """Construct the graph over ``first`` and ``second``."""
        if self.config.engine == "reference":
            return self._build_reference(first, second)
        return self._build_bulk(first, second)

    # ------------------------------------------------------------------
    # Reference engine: the original per-term loop (Algorithm 1 verbatim).
    def _build_reference(self, first: Corpus, second: Corpus) -> BuiltGraph:
        first_terms = self._corpus_terms(first)
        second_terms = self._corpus_terms(second)

        filter_strategy = self.config.make_filter()
        filter_strategy.prepare(
            [terms for _oid, terms in first_terms],
            [terms for _oid, terms in second_terms],
        )

        graph = MatchGraph()
        first_metadata: Dict[str, str] = {}
        second_metadata: Dict[str, str] = {}
        stats = FilterStatistics()

        # ---- first corpus (Algorithm 1, lines 3-25) -------------------
        role = self._role_of(first)
        for index, (object_id, terms) in enumerate(first_terms):
            label = metadata_label(first, object_id)
            graph.add_node(label, kind=NodeKind.METADATA, corpus="first", role=role)
            first_metadata[object_id] = label
            kept = filter_strategy.keep_first(index, terms)
            stats.first_total += len(terms)
            stats.first_kept += len(kept)
            column_labels = self._column_labels_for(first, object_id, graph)
            for term in kept:
                graph.add_node(term, kind=NodeKind.DATA, corpus="first", role="term")
                graph.add_edge(label, term)
                for col_label in column_labels.get(term, ()):  # table only
                    graph.add_edge(col_label, term)

        if isinstance(first, Taxonomy) and self.config.connect_structured_metadata:
            self._connect_taxonomy(graph, first, first_metadata)

        # ---- second corpus (Algorithm 1, lines 27-34) ------------------
        role = self._role_of(second)
        allow_new = self._second_may_create_nodes(filter_strategy)
        for index, (object_id, terms) in enumerate(second_terms):
            label = metadata_label(second, object_id)
            graph.add_node(label, kind=NodeKind.METADATA, corpus="second", role=role)
            second_metadata[object_id] = label
            kept = filter_strategy.keep_second(index, terms)
            stats.second_total += len(terms)
            for term in kept:
                if graph.has_node(term):
                    graph.add_edge(label, term)
                    stats.second_kept += 1
                elif allow_new:
                    graph.add_node(term, kind=NodeKind.DATA, corpus="second", role="term")
                    graph.add_edge(label, term)
                    stats.second_kept += 1

        if isinstance(second, Taxonomy) and self.config.connect_structured_metadata:
            self._connect_taxonomy(graph, second, second_metadata)

        return BuiltGraph(
            graph=graph,
            first_metadata=first_metadata,
            second_metadata=second_metadata,
            filter_stats=stats,
            engine="reference",
            intersect_anchor=(
                filter_strategy.anchor
                if isinstance(filter_strategy, IntersectFilter)
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Bulk engine: interned single-pass construction.
    def _build_bulk(self, first: Corpus, second: Corpus) -> BuiltGraph:
        interner = self._interner
        # Safe only between builds: every id array below is derived from a
        # single interning generation.
        interner.reset_if_larger_than()
        want_cells = isinstance(first, Table) and self.config.add_column_nodes
        first_docs, cells = self._corpus_term_ids(first, interner, want_cells)
        second_docs, _ = self._corpus_term_ids(second, interner, False)
        num_terms = len(interner)

        bulk_filter = make_bulk_filter(
            self.config.make_filter(),
            [ids for _oid, ids in first_docs],
            [ids for _oid, ids in second_docs],
            interner.terms,
        )

        stats = FilterStatistics()
        term_labels = np.array(interner.terms, dtype=object) if num_terms else np.empty(0, object)
        # Graph id per term (-1 = not a node yet).  Graph ids are assigned
        # by emission position, which reproduces the reference engine's
        # insertion order exactly: per document — metadata node, new column
        # nodes, new kept terms; second-corpus documents after all
        # first-corpus nodes.  Insertion order fixes the CSR node ids, so
        # this is what makes seeded runs engine-independent.
        term_gid = np.full(num_terms, -1, dtype=np.int64)
        meta_gid: Dict[str, int] = {}
        edge_u: List[np.ndarray] = []
        edge_v: List[np.ndarray] = []

        # ---- first corpus ---------------------------------------------
        n1 = len(first_docs)
        first_metadata = {
            object_id: metadata_label(first, object_id) for object_id, _ids in first_docs
        }
        meta_labels1 = list(first_metadata.values())
        kept1_list = [
            bulk_filter.keep_first(index, ids)
            for index, (_oid, ids) in enumerate(first_docs)
        ]
        kept_counts1 = np.fromiter((k.size for k in kept1_list), dtype=np.int64, count=n1)
        kept1 = _concat(kept1_list)
        stats.first_total = sum(int(ids.size) for _oid, ids in first_docs)
        stats.first_kept = int(kept1.size)

        # New terms in corpus-wide first-occurrence order.
        uniq, first_pos = np.unique(kept1, return_index=True)
        order = np.argsort(first_pos, kind="stable")
        new_terms1 = uniq[order]
        kept_offsets1 = np.zeros(n1 + 1, dtype=np.int64)
        np.cumsum(kept_counts1, out=kept_offsets1[1:])
        doc_of_new1 = np.searchsorted(kept_offsets1, first_pos[order], side="right") - 1
        new_per_doc1 = np.bincount(doc_of_new1, minlength=n1).astype(np.int64)

        new_cols_per_doc = (
            np.fromiter((len(c) for c in cells.cols_new_in_row), dtype=np.int64, count=n1)
            if cells is not None
            else np.zeros(n1, dtype=np.int64)
        )
        node_counts1 = 1 + new_cols_per_doc + new_per_doc1
        node_offsets1 = np.zeros(n1 + 1, dtype=np.int64)
        np.cumsum(node_counts1, out=node_offsets1[1:])
        meta_gids1 = node_offsets1[:-1]
        new_before1 = np.zeros(n1 + 1, dtype=np.int64)
        np.cumsum(new_per_doc1, out=new_before1[1:])
        term_gid[new_terms1] = (
            node_offsets1[doc_of_new1]
            + 1
            + new_cols_per_doc[doc_of_new1]
            + np.arange(new_terms1.size, dtype=np.int64)
            - new_before1[doc_of_new1]
        )

        # First-segment node emission arrays.
        total1 = int(node_offsets1[-1])
        labels1 = np.empty(total1, dtype=object)
        kinds1 = np.empty(total1, dtype=object)
        roles1 = np.empty(total1, dtype=object)
        kinds1[:] = NodeKind.DATA
        roles1[:] = "term"
        # dtype=object keeps the original str objects (a bare list would be
        # routed through a unicode array and come back as np.str_).
        labels1[meta_gids1] = np.array(meta_labels1, dtype=object)
        kinds1[meta_gids1] = NodeKind.METADATA
        roles1[meta_gids1] = self._role_of(first)
        term_positions1 = term_gid[new_terms1]
        labels1[term_positions1] = term_labels[new_terms1]
        meta_gid.update(zip(meta_labels1, meta_gids1.tolist()))
        col_gid = None
        if cells is not None:
            col_gid = np.empty(len(cells.col_names), dtype=np.int64)
            for row_index, new_cols in enumerate(cells.cols_new_in_row):
                base = int(node_offsets1[row_index]) + 1
                for offset, col_index in enumerate(new_cols):
                    gid = base + offset
                    col_label = f"{COLUMN_PREFIX}{first.name}::{cells.col_names[col_index]}"
                    col_gid[col_index] = gid
                    labels1[gid] = col_label
                    kinds1[gid] = NodeKind.METADATA
                    roles1[gid] = "column"
                    meta_gid[col_label] = gid

        # First-corpus edges: every kept term to its document node, plus —
        # for tables — kept terms to the column nodes of the cells that
        # contain them, computed in one corpus-wide membership pass.
        if kept1.size:
            edge_u.append(np.repeat(meta_gids1, kept_counts1))
            edge_v.append(term_gid[kept1])
        if cells is not None and kept1.size and cells.cell_term.size:
            packing = np.int64(num_terms if num_terms else 1)
            kept_keys = np.repeat(np.arange(n1, dtype=np.int64), kept_counts1) * packing + kept1
            cell_keys = cells.cell_row * packing + cells.cell_term
            in_kept = np.isin(cell_keys, kept_keys)
            if in_kept.any():
                edge_u.append(col_gid[cells.cell_col[in_kept]])
                edge_v.append(term_gid[cells.cell_term[in_kept]])

        if isinstance(first, Taxonomy) and self.config.connect_structured_metadata:
            self._taxonomy_edge_ids(first, first_metadata, meta_gid, edge_u, edge_v)

        # ---- second corpus --------------------------------------------
        n2 = len(second_docs)
        second_metadata = {
            object_id: metadata_label(second, object_id) for object_id, _ids in second_docs
        }
        meta_labels2 = list(second_metadata.values())
        allow_new = bulk_filter.second_may_create_nodes
        kept2_list = [
            bulk_filter.keep_second(index, ids)
            for index, (_oid, ids) in enumerate(second_docs)
        ]
        kept_counts2 = np.fromiter((k.size for k in kept2_list), dtype=np.int64, count=n2)
        kept2 = _concat(kept2_list)
        stats.second_total = sum(int(ids.size) for _oid, ids in second_docs)

        # A second-corpus metadata label may collide with a first-corpus
        # one (same corpus kind, same object id): it occupies no new graph
        # position and is promoted to corpus "both" afterwards instead.
        is_new_meta = np.fromiter(
            (label not in meta_gid for label in meta_labels2), dtype=np.int64, count=n2
        )
        existing2 = term_gid[kept2] >= 0
        if allow_new:
            cand_flat = np.nonzero(~existing2)[0]
            uniq2, first_idx2 = np.unique(kept2[cand_flat], return_index=True)
            order2 = np.argsort(first_idx2, kind="stable")
            new_terms2 = uniq2[order2]
            new_flat_pos2 = cand_flat[first_idx2[order2]]
        else:
            new_terms2 = np.empty(0, dtype=kept2.dtype)
            new_flat_pos2 = np.empty(0, dtype=np.int64)
        kept_offsets2 = np.zeros(n2 + 1, dtype=np.int64)
        np.cumsum(kept_counts2, out=kept_offsets2[1:])
        doc_of_new2 = np.searchsorted(kept_offsets2, new_flat_pos2, side="right") - 1
        new_per_doc2 = np.bincount(doc_of_new2, minlength=n2).astype(np.int64)
        node_counts2 = is_new_meta + new_per_doc2
        node_offsets2 = np.zeros(n2 + 1, dtype=np.int64)
        np.cumsum(node_counts2, out=node_offsets2[1:])
        node_offsets2 += total1
        meta_gids2 = np.empty(n2, dtype=np.int64)
        promoted: List[str] = []
        for index, label in enumerate(meta_labels2):
            if is_new_meta[index]:
                gid = int(node_offsets2[index])
                meta_gid[label] = gid
                meta_gids2[index] = gid
            else:
                meta_gids2[index] = meta_gid[label]
                promoted.append(label)
        new_before2 = np.zeros(n2 + 1, dtype=np.int64)
        np.cumsum(new_per_doc2, out=new_before2[1:])
        if new_terms2.size:
            term_gid[new_terms2] = (
                node_offsets2[doc_of_new2]
                + is_new_meta[doc_of_new2]
                + np.arange(new_terms2.size, dtype=np.int64)
                - new_before2[doc_of_new2]
            )

        total2 = int(node_offsets2[-1]) - total1
        labels2 = np.empty(total2, dtype=object)
        kinds2 = np.empty(total2, dtype=object)
        roles2 = np.empty(total2, dtype=object)
        kinds2[:] = NodeKind.DATA
        roles2[:] = "term"
        new_meta_mask = is_new_meta.astype(bool)
        meta_positions2 = meta_gids2[new_meta_mask] - total1
        labels2[meta_positions2] = np.array(
            [label for label, new in zip(meta_labels2, new_meta_mask) if new],
            dtype=object,
        )
        kinds2[meta_positions2] = NodeKind.METADATA
        roles2[meta_positions2] = self._role_of(second)
        if new_terms2.size:
            term_positions2 = term_gid[new_terms2] - total1
            labels2[term_positions2] = term_labels[new_terms2]

        # Second-corpus edges.
        connect_mask = slice(None) if allow_new else existing2
        connect = kept2[connect_mask]
        stats.second_kept = int(connect.size)
        if connect.size:
            doc_idx2 = np.repeat(np.arange(n2, dtype=np.int64), kept_counts2)[connect_mask]
            edge_u.append(meta_gids2[doc_idx2])
            edge_v.append(term_gid[connect])

        if isinstance(second, Taxonomy) and self.config.connect_structured_metadata:
            self._taxonomy_edge_ids(second, second_metadata, meta_gid, edge_u, edge_v)

        # ---- emit ------------------------------------------------------
        graph = MatchGraph()
        graph.add_nodes_bulk(labels1, kind=kinds1, corpus="first", role=roles1)
        graph.add_nodes_bulk(labels2, kind=kinds2, corpus="second", role=roles2)
        if promoted:
            # The reference engine's add_node applies the "both" promotion
            # when a second-corpus document re-adds an existing label.
            graph.add_nodes_bulk(
                promoted, kind=NodeKind.METADATA, corpus="second", role=self._role_of(second)
            )
        node_labels = graph.nodes()
        if edge_u:
            lo, hi = dedup_edge_ids(
                np.concatenate(edge_u), np.concatenate(edge_v), len(node_labels)
            )
            label_arr = np.array(node_labels, dtype=object)
            graph.add_edges_bulk(label_arr[lo], label_arr[hi], assume_unique=True)
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        # Prime the CSR walk snapshot straight from the deduped edge arrays:
        # the walk engine then skips its own label→index re-interning pass.
        prime_csr_cache(
            graph, build_csr_from_edges(node_labels, lo, hi, graph_version=graph.version)
        )

        return BuiltGraph(
            graph=graph,
            first_metadata=first_metadata,
            second_metadata=second_metadata,
            filter_stats=stats,
            engine="bulk",
            intersect_anchor=getattr(bulk_filter, "anchor", None),
        )

    # ------------------------------------------------------------------
    def _corpus_term_ids(
        self, corpus: Corpus, interner: TermInterner, want_cells: bool
    ) -> Tuple[List[Tuple[str, np.ndarray]], Optional["_TableCells"]]:
        """(object id, unique interned term ids) per document.

        For tables with ``want_cells`` the flattened cell structure needed
        for column nodes/edges is returned as well, reusing the interner's
        value memo so every distinct cell value is preprocessed exactly
        once — the reference engine preprocesses each cell twice (terms +
        column map).
        """
        docs: List[Tuple[str, np.ndarray]] = []
        if isinstance(corpus, Table):
            col_index: Dict[str, int] = {}
            col_names: List[str] = []
            cols_new_in_row: List[List[int]] = []
            row_ids: List[str] = []
            # One scalar entry per cell; flattened with np.repeat afterwards.
            cell_row_nums: List[int] = []
            cell_col_nums: List[int] = []
            cell_parts: List[np.ndarray] = []
            for row_number, row in enumerate(corpus):
                row_ids.append(row.row_id)
                new_cols: List[int] = []
                for column, value in row.non_null_items():
                    cell_parts.append(interner.term_ids(str(value)))
                    cell_row_nums.append(row_number)
                    if want_cells:
                        index = col_index.get(column)
                        if index is None:
                            index = len(col_names)
                            col_index[column] = index
                            col_names.append(column)
                            new_cols.append(index)
                        cell_col_nums.append(index)
                if want_cells:
                    cols_new_in_row.append(new_cols)
            lens = np.fromiter(
                (p.size for p in cell_parts), dtype=np.int64, count=len(cell_parts)
            )
            flat_term = _concat(cell_parts).astype(np.int64)
            flat_row = np.repeat(np.array(cell_row_nums, dtype=np.int64), lens)
            # Per-row dedup in one pass: unique (row, term) pairs, kept in
            # within-row first-occurrence order (the terms_of_values order).
            n_rows = len(row_ids)
            packing = np.int64(max(len(interner), 1))
            _values, keep = np.unique(flat_row * packing + flat_term, return_index=True)
            keep.sort()
            dedup_term = flat_term[keep].astype(np.int32)
            dedup_row = flat_row[keep]
            row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(dedup_row, minlength=n_rows), out=row_offsets[1:])
            docs = [
                (row_id, dedup_term[row_offsets[i]:row_offsets[i + 1]])
                for i, row_id in enumerate(row_ids)
            ]
            if want_cells:
                return docs, _TableCells(
                    cell_row=flat_row,
                    cell_col=np.repeat(np.array(cell_col_nums, dtype=np.int64), lens),
                    cell_term=flat_term,
                    col_names=col_names,
                    cols_new_in_row=cols_new_in_row,
                )
            return docs, None
        if isinstance(corpus, Taxonomy):
            for node in corpus:
                docs.append((node.node_id, interner.term_ids(node.label)))
        elif isinstance(corpus, TextCorpus):
            for doc in corpus:
                docs.append((doc.doc_id, interner.term_ids(doc.text)))
        else:
            raise TypeError(f"unsupported corpus type: {type(corpus)!r}")
        return docs, None

    @staticmethod
    def _taxonomy_edge_ids(
        taxonomy: Taxonomy,
        metadata: Dict[str, str],
        meta_gid: Dict[str, int],
        edge_u: List[np.ndarray],
        edge_v: List[np.ndarray],
    ) -> None:
        """Append parent/child metadata edge ids (bulk counterpart of
        :meth:`_connect_taxonomy`)."""
        pairs = []
        for node in taxonomy:
            if node.parent_id is None:
                continue
            child_label = metadata.get(node.node_id)
            parent_label = metadata.get(node.parent_id)
            if child_label and parent_label:
                pairs.append((meta_gid[child_label], meta_gid[parent_label]))
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            edge_u.append(arr[:, 0])
            edge_v.append(arr[:, 1])

    # ------------------------------------------------------------------
    # Corpus-specific term extraction
    def _corpus_terms(self, corpus: Corpus) -> List[Tuple[str, List[str]]]:
        """(object id, term list) for every document of ``corpus``."""
        preprocessor = self._preprocessor
        result: List[Tuple[str, List[str]]] = []
        if isinstance(corpus, Table):
            for row in corpus:
                values = [str(v) for _c, v in row.non_null_items()]
                result.append((row.row_id, preprocessor.terms_of_values(values)))
        elif isinstance(corpus, Taxonomy):
            for node in corpus:
                result.append((node.node_id, preprocessor.terms(node.label)))
        elif isinstance(corpus, TextCorpus):
            for doc in corpus:
                result.append((doc.doc_id, preprocessor.terms(doc.text)))
        else:
            raise TypeError(f"unsupported corpus type: {type(corpus)!r}")
        return result

    @staticmethod
    def _role_of(corpus: Corpus) -> str:
        if isinstance(corpus, Table):
            return "tuple"
        if isinstance(corpus, Taxonomy):
            return "concept"
        return "document"

    def _column_labels_for(
        self, corpus: Corpus, object_id: str, graph: MatchGraph
    ) -> Dict[str, List[str]]:
        """For tables: map each term of the row to its column node labels.

        Also adds the column metadata nodes to the graph on first use.
        """
        if not isinstance(corpus, Table) or not self.config.add_column_nodes:
            return {}
        row = corpus[object_id]
        mapping: Dict[str, List[str]] = {}
        for column, value in row.non_null_items():
            col_label = f"{COLUMN_PREFIX}{corpus.name}::{column}"
            graph.add_node(col_label, kind=NodeKind.METADATA, corpus="first", role="column")
            for term in self._preprocessor.terms(str(value)):
                mapping.setdefault(term, []).append(col_label)
        return mapping

    @staticmethod
    def _connect_taxonomy(graph: MatchGraph, taxonomy: Taxonomy, metadata: Dict[str, str]) -> None:
        """Add parent/child metadata-metadata edges (Algorithm 1 lines 12-16)."""
        for node in taxonomy:
            if node.parent_id is None:
                continue
            child_label = metadata.get(node.node_id)
            parent_label = metadata.get(node.parent_id)
            if child_label and parent_label:
                graph.add_edge(child_label, parent_label)

    @staticmethod
    def _second_may_create_nodes(filter_strategy: FilterStrategy) -> bool:
        """Whether second-corpus terms may create *new* data nodes.

        Under Intersect filtering only the anchor corpus introduces nodes;
        the Normal and TF-IDF strategies of Figure 9 let both corpora do so.
        """
        if isinstance(filter_strategy, IntersectFilter):
            return filter_strategy.anchor == "second"
        return True
