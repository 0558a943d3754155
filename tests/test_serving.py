"""Tests for the serving subsystem: persistence, incremental fit, reports."""

import json
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.core.config import ENGINE_STAGES, CompressionConfig, TDMatchConfig
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.pipeline import TDMatch
from repro.corpus.documents import TextCorpus
from repro.datasets import ScenarioSize, generate_scenario
from repro.eval.metrics import evaluate_rankings
from repro.serving import (
    INDEX_FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    IndexCorruptionError,
    IndexFormatError,
    LazyBuiltGraph,
)
from repro.serving.index import config_from_dict, config_to_dict, read_index, write_index

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=3)


@pytest.fixture(scope="module")
def text_scenario():
    return generate_scenario("snopes", size=ScenarioSize.tiny(), seed=3)


@pytest.fixture(scope="module")
def fitted(scenario):
    pipeline = TDMatch(TDMatchConfig.fast(), seed=7)
    pipeline.fit(scenario.first, scenario.second)
    return pipeline


@pytest.fixture
def index_path(fitted, tmp_path):
    path = str(tmp_path / "index.tdm")
    fitted.save(path)
    return path


# ----------------------------------------------------------------------
# Raw container
class TestIndexContainer:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "raw.tdm")
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3),
        }
        write_index(path, {"hello": "world"}, arrays)
        header, loaded = read_index(path)
        assert header["hello"] == "world"
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_mmap_arrays_are_read_only_memmaps(self, tmp_path):
        path = str(tmp_path / "raw.tdm")
        write_index(path, {}, {"a": np.arange(5, dtype=np.float32)})
        _, arrays = read_index(path, mmap=True)
        assert isinstance(arrays["a"], np.memmap)
        assert not arrays["a"].flags.writeable

    def test_blobs_are_64_byte_aligned(self, tmp_path):
        path = str(tmp_path / "raw.tdm")
        write_index(
            path,
            {},
            {"a": np.arange(3, dtype=np.int8), "b": np.arange(4, dtype=np.int8)},
        )
        header, _ = read_index(path)
        for meta in header["arrays"].values():
            assert meta["offset"] % 64 == 0

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "junk.tdm")
        with open(path, "wb") as handle:
            handle.write(b"this is definitely not an index file")
        with pytest.raises(IndexFormatError, match="bad magic"):
            read_index(path)

    def test_version_mismatch_raises_with_versions_in_message(self, tmp_path, fitted):
        path = str(tmp_path / "index.tdm")
        fitted.save(path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:8] + struct.pack("<I", 999) + data[12:])
        with pytest.raises(IndexFormatError, match="999"):
            TDMatch.load(path)

    def test_format_version_is_two(self):
        # v2 added the header CRC and per-blob CRC32s; v1 stays readable.
        assert INDEX_FORMAT_VERSION == 2
        assert SUPPORTED_VERSIONS == (1, 2)


# ----------------------------------------------------------------------
# Hostile headers: every malformed container fails with the library's own
# exceptions — never a raw struct/json/numpy error.
def _raw_index(tmp_path, arrays=None) -> str:
    path = str(tmp_path / "hostile.tdm")
    write_index(path, {"k": "v"}, arrays or {"a": np.arange(6, dtype=np.int64)})
    return path


def _rewrite_header(path: str, mutate) -> None:
    """Decode the v2 container, let ``mutate`` edit the header dict, repack.

    The header CRC is recomputed so the corruption under test is the
    *directory contents*, not a checksum mismatch.
    """
    preamble_struct = struct.Struct("<8sIQ")
    with open(path, "rb") as handle:
        preamble = handle.read(preamble_struct.size)
        magic, version, header_len = preamble_struct.unpack(preamble)
        handle.read(4)  # header CRC, recomputed below
        header = json.loads(handle.read(header_len).decode("utf-8"))
        data_start = (preamble_struct.size + 4 + header_len + 63) // 64 * 64
        handle.seek(data_start)
        data = handle.read()
    mutate(header)
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    new_data_start = (preamble_struct.size + 4 + len(payload) + 63) // 64 * 64
    with open(path, "wb") as handle:
        handle.write(preamble_struct.pack(magic, version, len(payload)))
        handle.write(struct.pack("<I", zlib.crc32(payload)))
        handle.write(payload)
        handle.write(b"\x00" * (new_data_start - preamble_struct.size - 4 - len(payload)))
        handle.write(data)


class TestHostileHeaders:
    def test_truncated_preamble(self, tmp_path):
        path = str(tmp_path / "stub.tdm")
        with open(path, "wb") as handle:
            handle.write(b"TDMIDX\x00\x00\x01")  # magic + 1 byte
        with pytest.raises(IndexFormatError, match="truncated inside the preamble"):
            read_index(path)

    def test_header_length_past_eof(self, tmp_path):
        path = _raw_index(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(12)
            handle.write(struct.pack("<Q", 10**9))
        with pytest.raises(IndexCorruptionError, match="hostile header length"):
            read_index(path)

    def test_unknown_format_version(self, tmp_path):
        path = _raw_index(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<I", 7))
        with pytest.raises(IndexFormatError, match="version 7"):
            read_index(path)

    def test_directory_offset_out_of_bounds(self, tmp_path):
        path = _raw_index(tmp_path)

        def mutate(header):
            header["arrays"]["a"]["offset"] = 10**9

        _rewrite_header(path, mutate)
        with pytest.raises(IndexCorruptionError, match="extends past the end"):
            read_index(path)

    def test_directory_offsets_overlapping(self, tmp_path):
        path = _raw_index(
            tmp_path,
            arrays={
                "a": np.arange(16, dtype=np.int64),
                "b": np.arange(16, dtype=np.int64),
            },
        )

        def mutate(header):
            # Point b into a's extent.
            header["arrays"]["b"]["offset"] = header["arrays"]["a"]["offset"] + 8

        _rewrite_header(path, mutate)
        with pytest.raises(IndexCorruptionError, match="overlap"):
            read_index(path)

    def test_negative_dimension(self, tmp_path):
        path = _raw_index(tmp_path)

        def mutate(header):
            header["arrays"]["a"]["shape"] = [-6]

        _rewrite_header(path, mutate)
        with pytest.raises(IndexFormatError, match="negative"):
            read_index(path)

    def test_unparsable_dtype(self, tmp_path):
        path = _raw_index(tmp_path)

        def mutate(header):
            header["arrays"]["a"]["dtype"] = "no-such-dtype"

        _rewrite_header(path, mutate)
        with pytest.raises(IndexFormatError, match="malformed directory entry"):
            read_index(path)

    def test_header_not_json(self, tmp_path):
        path = _raw_index(tmp_path)
        preamble_struct = struct.Struct("<8sIQ")
        payload = b"{not json"
        with open(path, "wb") as handle:
            handle.write(preamble_struct.pack(b"TDMIDX\x00\x00", 2, len(payload)))
            handle.write(struct.pack("<I", zlib.crc32(payload)))
            handle.write(payload)
        with pytest.raises(IndexFormatError, match="not valid JSON"):
            read_index(path)

    def test_missing_array_directory(self, tmp_path):
        path = _raw_index(tmp_path)
        preamble_struct = struct.Struct("<8sIQ")
        payload = json.dumps({"config": {}}).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(preamble_struct.pack(b"TDMIDX\x00\x00", 2, len(payload)))
            handle.write(struct.pack("<I", zlib.crc32(payload)))
            handle.write(payload)
        with pytest.raises(IndexFormatError, match="array directory"):
            read_index(path)

    def test_unknown_verify_mode_rejected(self, tmp_path):
        path = _raw_index(tmp_path)
        with pytest.raises(ValueError, match="verify mode"):
            read_index(path, verify="paranoid")


# ----------------------------------------------------------------------
# Save / load roundtrip
class TestSaveLoadRoundtrip:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_rankings_identical_after_roundtrip(self, fitted, index_path, mmap):
        expected = fitted.match_result(k=10).to_dict()
        loaded = TDMatch.load(index_path, mmap=mmap)
        actual = loaded.match_result(k=10).to_dict()
        # Byte-identical serving: same candidates, same float scores.
        assert actual["rankings"] == expected["rankings"]

    def test_mmap_embeddings_are_shared_pages(self, index_path):
        loaded = TDMatch.load(index_path, mmap=True)
        vectors = loaded.model._input_vectors
        assert isinstance(vectors, np.memmap)
        assert not vectors.flags.writeable

    def test_default_mmap_mode_comes_from_saved_config(self, scenario, tmp_path):
        config = TDMatchConfig.fast()
        config.serving.mmap = True
        pipeline = TDMatch(config, seed=7).fit(scenario.first, scenario.second)
        path = str(tmp_path / "mmap_default.tdm")
        pipeline.save(path)
        assert isinstance(TDMatch.load(path).model._input_vectors, np.memmap)
        assert not isinstance(
            TDMatch.load(path, mmap=False).model._input_vectors, np.memmap
        )

    def test_loaded_graph_is_lazy_until_accessed(self, index_path):
        loaded = TDMatch.load(index_path)
        built = loaded.state.built
        assert isinstance(built, LazyBuiltGraph)
        assert not built.materialized
        loaded.match(k=3)  # dense serving never touches the graph
        assert not built.materialized
        assert built.graph.num_nodes() > 0
        assert built.materialized

    def test_materialized_graph_matches_original(self, fitted, index_path):
        loaded = TDMatch.load(index_path)
        original = fitted.graph
        restored = loaded.graph
        assert restored.num_nodes() == original.num_nodes()
        assert restored.num_edges() == original.num_edges()
        assert sorted(restored.nodes()) == sorted(original.nodes())

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            TDMatch(TDMatchConfig.fast()).save(str(tmp_path / "nope.tdm"))

    def test_config_roundtrips_through_index(self, index_path, fitted):
        loaded = TDMatch.load(index_path)
        assert loaded.config.walks.num_walks == fitted.config.walks.num_walks
        assert loaded.config.word2vec.vector_size == fitted.config.word2vec.vector_size
        assert loaded.config.builder.filter_strategy_name == (
            fitted.config.builder.filter_strategy_name
        )

    def test_snapshot_with_retired_blocking_field_still_loads(self, index_path, fitted):
        # Indexes written while RetrievalConfig still had a ``blocking``
        # field restore unchanged: unknown keys are skipped.
        snapshot = config_to_dict(fitted.config)
        snapshot["retrieval"]["blocking"] = "token"
        assert config_to_dict(config_from_dict(snapshot)) == config_to_dict(fitted.config)

        def add_blocking(header):
            header["config"]["retrieval"]["blocking"] = "token"

        _rewrite_header(index_path, add_blocking)
        loaded = TDMatch.load(index_path, verify="full")
        assert config_to_dict(loaded.config) == config_to_dict(fitted.config)
        expected = fitted.match_result(k=10).to_dict()["rankings"]
        assert loaded.match_result(k=10).to_dict()["rankings"] == expected

    def test_snapshot_with_python_walk_engine_loads_as_reference(self, index_path, fitted):
        # Indexes written while "python" was a second name of the reference
        # walk engine restore with the one name it has now.
        def python_walks(header):
            header["config"]["walks"]["walk_engine"] = "python"

        _rewrite_header(index_path, python_walks)
        loaded = TDMatch.load(index_path)
        assert loaded.config.walks.walk_engine == "reference"
        assert loaded.engines()["walks"] == "reference"
        expected = fitted.match_result(k=10).to_dict()["rankings"]
        assert loaded.match_result(k=10).to_dict()["rankings"] == expected

    def test_index_with_notes_header_serves_identically(self, index_path, fitted):
        # Indexes written before report() was derived from state carry a
        # "notes" dict of strings; it is ignored, not replayed.
        def add_notes(header):
            header["notes"] = {
                "w2v_pairs_per_sec": "123456",
                "retrieval_backend": "blocked",
                "compared_pairs": "512",
            }

        _rewrite_header(index_path, add_notes)
        loaded = TDMatch.load(index_path, verify="full")
        expected = fitted.match_result(k=10).to_dict()["rankings"]
        assert loaded.match_result(k=10).to_dict()["rankings"] == expected
        text = json.dumps(loaded.report())
        assert "123456" not in text and "blocked" not in text

    def test_query_in_fresh_subprocess_without_fit(self, index_path, fitted):
        """The two-process story: fit-save here, load-query in a new process."""
        expected = fitted.match_result(k=5).to_dict()["rankings"]
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        output = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", "--index", index_path,
             "--k", "5", "--json"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        payload = json.loads(output)
        assert payload["result"]["rankings"] == expected


# ----------------------------------------------------------------------
# Output-vector-free (serving-only) indexes
class TestServingOnlyIndex:
    @pytest.fixture
    def slim_path(self, scenario, tmp_path):
        config = TDMatchConfig.fast()
        config.serving.include_output_vectors = False
        pipeline = TDMatch(config, seed=7).fit(scenario.first, scenario.second)
        path = str(tmp_path / "slim.tdm")
        pipeline.save(path)
        return path

    def test_slim_index_serves_matches(self, slim_path):
        loaded = TDMatch.load(slim_path)
        assert len(list(loaded.match(k=3))) > 0

    def test_slim_index_rejects_incremental_fit(self, slim_path):
        loaded = TDMatch.load(slim_path)
        with pytest.raises(PipelineError, match="output vectors"):
            loaded.add_documents([("new", "some text")], side="first")


# ----------------------------------------------------------------------
# Incremental fit
class TestIncrementalFit:
    def _reduced_fit(self, text_scenario, holdout=2):
        docs = list(text_scenario.second)
        reduced = TextCorpus(docs[holdout:], name=text_scenario.second.name)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=7)
        pipeline.fit(text_scenario.first, reduced)
        return pipeline, docs[:holdout]

    def test_add_documents_makes_new_candidates_matchable(self, text_scenario):
        pipeline, held = self._reduced_fit(text_scenario)
        labels = pipeline.add_documents(held, side="second")
        assert len(labels) == len(held)
        candidates = {
            candidate
            for ranking in pipeline.match(k=len(text_scenario.second))
            for candidate, _ in ranking.candidates
        }
        for doc in held:
            assert doc.doc_id in candidates

    def test_incremental_converges_to_refit_mrr(self, text_scenario):
        full = TDMatch(TDMatchConfig.fast(), seed=7)
        full.fit(text_scenario.first, text_scenario.second)
        refit_mrr = evaluate_rankings(
            "refit", full.match(k=10), text_scenario.gold, ks=(1, 5)
        ).mrr
        pipeline, held = self._reduced_fit(text_scenario)
        pipeline.add_documents(held, side="second")
        incremental_mrr = evaluate_rankings(
            "inc", pipeline.match(k=10), text_scenario.gold, ks=(1, 5)
        ).mrr
        assert abs(refit_mrr - incremental_mrr) <= 0.05

    def test_add_records_on_table_side(self, scenario):
        from repro.corpus.table import Table

        rows = list(scenario.second.rows)
        reduced = Table(scenario.second.name, scenario.second.columns)
        for row in rows[1:]:
            reduced.add_row(row)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=7)
        pipeline.fit(scenario.first, reduced)
        labels = pipeline.add_records([rows[0]], side="second")
        assert len(labels) == 1
        assert rows[0].row_id in pipeline.state.built.second_metadata

    def test_duplicate_id_raises(self, text_scenario):
        pipeline, held = self._reduced_fit(text_scenario)
        existing = list(pipeline.state.built.second_metadata)[0]
        with pytest.raises(PipelineError, match="already exists"):
            pipeline.add_documents([(existing, "text")], side="second")

    @staticmethod
    def _delta_state(pipeline, side="second"):
        graph = pipeline.graph
        built = pipeline.state.built
        return (
            dict(built.first_metadata if side == "first" else built.second_metadata),
            set(graph.nodes()),
            set(graph.edges()),
            len(pipeline.model.vocab),
        )

    @pytest.mark.parametrize("clash", ["existing", "repeated"])
    def test_failed_batch_leaves_no_partial_state(self, text_scenario, clash):
        pipeline, _held = self._reduced_fit(text_scenario)
        existing = list(pipeline.state.built.second_metadata)[0]
        second_id = existing if clash == "existing" else "new-a"
        before = self._delta_state(pipeline)
        with pytest.raises(PipelineError):
            pipeline.add_documents(
                [("new-a", "a brand new film"), (second_id, "more text")], side="second"
            )
        assert self._delta_state(pipeline) == before

    def test_remove_drops_candidate(self, text_scenario):
        pipeline, _ = self._reduced_fit(text_scenario)
        victim = list(pipeline.state.built.second_metadata)[0]
        labels = pipeline.remove([victim], side="second")
        assert victim not in pipeline.state.built.second_metadata
        assert labels[0] not in pipeline.graph
        candidates = {
            candidate
            for ranking in pipeline.match(k=50)
            for candidate, _ in ranking.candidates
        }
        assert victim not in candidates

    def test_remove_unknown_id_raises(self, text_scenario):
        pipeline, _ = self._reduced_fit(text_scenario)
        with pytest.raises(PipelineError, match="unknown"):
            pipeline.remove(["no-such-id"], side="second")

    @pytest.mark.parametrize("bad", ["no-such-id", "repeated"])
    def test_failed_remove_removes_nothing(self, text_scenario, bad):
        pipeline, _ = self._reduced_fit(text_scenario)
        known = list(pipeline.state.built.second_metadata)[0]
        before = self._delta_state(pipeline)
        with pytest.raises(PipelineError):
            pipeline.remove([known, known if bad == "repeated" else bad], side="second")
        assert self._delta_state(pipeline) == before

    def test_incremental_on_mmap_loaded_index(self, text_scenario, tmp_path):
        pipeline, held = self._reduced_fit(text_scenario)
        path = str(tmp_path / "inc.tdm")
        pipeline.save(path)
        loaded = TDMatch.load(path, mmap=True)
        # Fine-tuning must copy the read-only mapped matrices, not crash.
        labels = loaded.add_documents(held, side="second")
        assert labels
        assert loaded.model._input_vectors.flags.writeable

    def test_freeze_distant_pins_unrelated_rows(self, text_scenario):
        pipeline, held = self._reduced_fit(text_scenario)
        model = pipeline.state.model
        touched_before = np.array(model._input_vectors, copy=True)
        vocab_before = len(model.vocab)
        pipeline.add_documents(held, side="second")
        after = model._input_vectors[:vocab_before]
        # Most rows are outside the touched neighbourhood and stay identical.
        unchanged = np.all(after == touched_before, axis=1)
        assert unchanged.sum() > 0.5 * vocab_before

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_delta_of_the_wrong_kind_is_refused(self, fitted, side):
        # imdb_wt fits reviews (text) against movies (a table): text goes
        # only to the first side, rows only to the second.
        before = self._delta_state(fitted, side)
        with pytest.raises(PipelineError, match="nothing was applied"):
            if side == "second":
                fitted.add_documents([("zz9", "a review of a new film")], side=side)
            else:
                fitted.add_records([("zz9", {"title": "New Film"})], side=side)
        assert self._delta_state(fitted, side) == before

    def test_rows_refused_on_a_text_side(self, text_scenario):
        pipeline, _held = self._reduced_fit(text_scenario)
        before = self._delta_state(pipeline)
        with pytest.raises(PipelineError, match="fitted as a text"):
            pipeline.add_records([("zz9", {"title": "New Film"})], side="second")
        assert self._delta_state(pipeline) == before

    def test_tfidf_filter_rejects_incremental(self, text_scenario):
        config = TDMatchConfig.fast()
        config.builder.filter_strategy_name = "tfidf"
        pipeline = TDMatch(config, seed=7)
        pipeline.fit(text_scenario.first, text_scenario.second)
        with pytest.raises(PipelineError, match="tfidf"):
            pipeline.add_documents([("x", "words")], side="second")


# ----------------------------------------------------------------------
# Unified engine switches
class TestEnginesAPI:
    def test_engines_property_reflects_stage_fields(self):
        config = TDMatchConfig.fast()
        assert config.engines == {
            "graph": config.builder.engine,
            "walks": config.walks.walk_engine,
            "word2vec": config.word2vec.trainer,
            "compression": config.compression.engine,
        }
        assert set(config.engines) == set(ENGINE_STAGES)

    def test_set_engines_updates_aliased_fields(self):
        config = TDMatchConfig.fast()
        config.engines = {"graph": "reference", "word2vec": "reference"}
        assert config.builder.engine == "reference"
        assert config.word2vec.trainer == "reference"
        assert config.walks.walk_engine == "csr"  # untouched

    def test_set_engines_rejects_unknown_stage(self):
        config = TDMatchConfig.fast()
        with pytest.raises(ValueError, match="stage"):
            config.set_engines({"walks2vec": "csr"})

    def test_set_engines_rejects_unknown_engine(self):
        config = TDMatchConfig.fast()
        with pytest.raises(ValueError, match="walk_engine"):
            config.set_engines({"walks": "quantum"})

    def test_engines_override_in_factory(self):
        config = TDMatchConfig.fast(engines={"walks": "reference"})
        assert config.walks.walk_engine == "reference"

    @pytest.mark.parametrize(
        "override", [{"engines": {"walks": "python"}}, {"walks__walk_engine": "python"}]
    )
    def test_retired_walk_engine_name_rejected(self, override):
        # "python" is no walk engine any more; a factory override naming it
        # fails instead of fitting with the default CSR engine.
        with pytest.raises(ValueError, match="walk_engine"):
            TDMatchConfig.fast(**override)

    def test_pipeline_engines_method(self, fitted):
        assert fitted.engines() == dict(fitted.config.engines)


# ----------------------------------------------------------------------
# Structured reports
class TestReports:
    def test_report_is_json_able(self, fitted):
        fitted.match(k=3)
        report = fitted.report()
        parsed = json.loads(json.dumps(report))
        assert parsed["engines"] == fitted.engines()
        assert "graph_build" in parsed["timings"]["stages"]
        assert parsed["graph"]["nodes"] == fitted.graph.num_nodes()
        assert parsed["model"]["vocab_size"] == len(fitted.model.vocab)

    def test_unfitted_report_has_no_state_sections(self):
        report = TDMatch(TDMatchConfig.fast()).report()
        assert "graph" not in report
        assert "model" not in report

    def test_match_result_to_dict(self, fitted):
        result = fitted.match_result(k=4)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["k"] == 4
        assert payload["retrieval"]["backend"] == "dense"
        assert len(payload["rankings"]) > 0
        first = next(iter(payload["rankings"].values()))
        assert len(first) <= 4
        assert isinstance(first[0][0], str) and isinstance(first[0][1], float)

    def test_refit_reports_only_the_latest_fit(self, scenario):
        config = TDMatchConfig.fast()
        config.compression = CompressionConfig(enabled=True, method="msp", ratio=1.0)
        config.parallel.num_workers = 1
        pipeline = TDMatch(config, seed=7).fit(scenario.first, scenario.second)
        report = pipeline.report()
        assert report["compression"]["engine"] == "bulk"
        assert report["parallel"] == {"num_workers": 1, "shards": 1}

        config.compression = CompressionConfig()
        config.parallel.num_workers = 0
        pipeline.fit(scenario.first, scenario.second)
        report = pipeline.report()
        assert "compression" not in report
        assert report["parallel"] == {"num_workers": 0}

    def test_compression_sizes_stay_as_compressed_after_a_delta(self, text_scenario):
        docs = list(text_scenario.second)
        config = TDMatchConfig.fast()
        config.compression = CompressionConfig(enabled=True, method="msp", ratio=1.0)
        pipeline = TDMatch(config, seed=7)
        pipeline.fit(text_scenario.first, TextCorpus(docs[2:], name="reduced"))
        before = pipeline.report()
        assert before["compression"]["nodes_after"] == before["graph"]["nodes"]
        pipeline.add_documents(docs[:2], side="second")
        after = pipeline.report()
        assert after["graph"]["nodes"] > before["graph"]["nodes"]
        assert after["compression"] == before["compression"]

    def test_loaded_index_reports_no_fit_process_figures(self, fitted, tmp_path):
        fitted.match_result(k=3)
        path = fitted.save(str(tmp_path / "fresh.tdm"))
        loaded = TDMatch.load(path, mmap=False)
        report = loaded.report()
        assert report["serving"] == {"index": path, "mmap": False, "verify": "header"}
        # The saved sizes, read without rebuilding the lazy graph.
        assert (report["graph"]["nodes"], report["graph"]["edges"]) == fitted.state.built.size()
        assert not loaded.state.built.materialized
        # No training and no query ran in this process yet.
        assert set(report["model"]) == {"vocab_size", "vector_size"}
        assert "walks" not in report
        text = json.dumps(report)
        for figure in ("pairs_per_sec", "retrieval", "compared_pairs", "reduction_ratio"):
            assert figure not in text
        # Per-query figures stay on the query's result.
        loaded.match_result(k=3)
        assert "retrieval" not in json.dumps(loaded.report())

    def test_report_values_are_typed(self, scenario, tmp_path):
        config = TDMatchConfig.fast()
        config.compression = CompressionConfig(enabled=True, method="msp", ratio=1.0)
        pipeline = TDMatch(config, seed=7).fit(scenario.first, scenario.second)
        pipeline.match_result(k=3)
        loaded = TDMatch.load(pipeline.save(str(tmp_path / "typed.tdm")))

        def leaves(value):
            if isinstance(value, dict):
                for item in value.values():
                    yield from leaves(item)
            elif isinstance(value, list):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for report in (pipeline.report(), loaded.report()):
            parsed = json.loads(json.dumps(report))
            for leaf in leaves(parsed):
                if isinstance(leaf, str):
                    with pytest.raises(ValueError):
                        float(leaf)  # a number formatted as a string
                    assert leaf not in ("True", "False")
        fitted = pipeline.report()
        assert isinstance(fitted["model"]["pairs_per_sec"], float)
        assert isinstance(fitted["graph"]["filter_kept_fraction"], float)
        assert isinstance(fitted["compression"]["nodes_after"], int)
        assert loaded.report()["serving"]["mmap"] is False

    def test_timing_registry_to_dict(self, fitted):
        payload = fitted.timings.to_dict()
        assert payload["stages"]["graph_build"]["seconds"] >= 0
        assert set(payload) == {"stages"}
        assert fitted.report()["graph"]["engine"] == "bulk"
