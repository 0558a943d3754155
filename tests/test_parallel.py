"""Tests for the sharded parallel fit layer (``repro.parallel``).

Covers the determinism contract end to end — ``num_workers=1`` with one
shard is bit-identical to the serial engines for both sharded stages
(compression and Word2Vec), and at a fixed shard count every worker count
produces identical output — plus shared-memory teardown hygiene (a failing
shard never leaks ``/dev/shm`` segments) and the shard plan (hypothesis
property: ``shard_ranges`` partitions its input into balanced ranges).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.config import CompressionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.graph.compression import msp_compress
from repro.graph.graph import MatchGraph, NodeKind
from repro.parallel import ParallelConfig, ShmArena, WorkerPool, attached, shard_ranges


# ----------------------------------------------------------------------
# Fixtures
def metadata_graph() -> MatchGraph:
    """A two-corpus graph msp_compress and the pipeline can run on."""
    g = MatchGraph()
    rng = np.random.default_rng(5)
    terms = [f"term{i}" for i in range(30)]
    for t in terms:
        g.add_node(t, kind=NodeKind.DATA)
    for i in range(8):
        g.add_node(f"t{i}", kind=NodeKind.METADATA, corpus="first", role="tuple")
        for j in rng.choice(30, size=6, replace=False):
            g.add_edge(f"t{i}", terms[j])
    for i in range(8):
        g.add_node(f"p{i}", kind=NodeKind.METADATA, corpus="second", role="document")
        for j in rng.choice(30, size=6, replace=False):
            g.add_edge(f"p{i}", terms[j])
    return g


def sentences_corpus(n: int = 80, length: int = 10, vocab: int = 40, seed: int = 1):
    ids = np.random.default_rng(seed).integers(0, vocab, (n, length))
    return [[f"w{i}" for i in row] for row in ids]


# ----------------------------------------------------------------------
# Config validation
class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert config.num_workers == 0
        assert not config.enabled
        assert config.shards == 1

    def test_explicit_shards_override_workers(self):
        assert ParallelConfig(num_workers=2, num_shards=5).shards == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(num_workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(num_shards=0)
        with pytest.raises(ValueError):
            ParallelConfig(mp_context="bogus")


# ----------------------------------------------------------------------
# Shared-memory arena + teardown hygiene (satellite: no leaked segments)
def _boom(desc):
    with attached(desc):
        raise RuntimeError("shard failure")


def _read_first(desc):
    with attached(desc) as (array,):
        return float(array.flat[0])


class TestShmArena:
    def test_share_and_view_roundtrip(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        with ShmArena() as arena:
            desc = arena.share(data)
            assert desc.shape == (3, 4) and desc.dtype == "float32"
            assert np.array_equal(arena.view(desc), data)
            with attached(desc) as (view,):
                assert np.array_equal(view, data)
            assert desc.name in ShmArena.live_segments()
        assert desc.name not in ShmArena.live_segments()

    def test_empty_blocks_are_zeroed(self):
        with ShmArena() as arena:
            desc, view = arena.empty((4, 2), np.int64)
            assert view.shape == (4, 2)
            assert not view.any()
            view[1, 1] = 7
            with attached(desc) as (worker_view,):
                assert worker_view[1, 1] == 7

    def test_segments_unlinked_after_exit(self):
        with ShmArena() as arena:
            desc = arena.share(np.ones(8))
        with pytest.raises(FileNotFoundError):
            with attached(desc):
                pass

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_failing_shard_leaks_no_segments(self, num_workers):
        # The teardown-hygiene regression: a worker exception mid-fit must
        # propagate AND leave every segment unlinked, inline and pooled.
        config = ParallelConfig(num_workers=num_workers)
        before = ShmArena.live_segments()
        with pytest.raises(RuntimeError, match="shard failure"):
            with ShmArena() as arena, WorkerPool(config) as pool:
                desc = arena.share(np.ones(16))
                pool.run(_boom, [(desc,), (desc,)])
        assert ShmArena.live_segments() == before
        with pytest.raises(FileNotFoundError):
            with attached(desc):
                pass

    def test_pool_runs_tasks_in_order(self):
        config = ParallelConfig(num_workers=2)
        with ShmArena() as arena, WorkerPool(config) as pool:
            descs = [arena.share(np.full(4, float(i))) for i in range(3)]
            results = pool.run(_read_first, [(d,) for d in descs])
        assert results == [0.0, 1.0, 2.0]


# ----------------------------------------------------------------------
# Shard plan (hypothesis property)
class TestShardStreams:
    @given(
        n=st.integers(min_value=0, max_value=200),
        num_shards=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_shard_ranges_partition(self, n, num_shards):
        ranges = shard_ranges(n, num_shards)
        assert len(ranges) == num_shards
        cursor = 0
        for lo, hi in ranges:
            assert lo == cursor and hi >= lo
            cursor = hi
        assert cursor == n
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# Compression sharding
class TestParallelCompression:
    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelConfig(num_workers=1, num_shards=3),
            ParallelConfig(num_workers=2),
            ParallelConfig(num_workers=2, num_shards=5),
        ],
    )
    def test_msp_output_identical_to_serial(self, parallel):
        graph = metadata_graph()
        first = [f"t{i}" for i in range(8)]
        second = [f"p{i}" for i in range(8)]
        serial = msp_compress(graph, first, second, beta=2.0, seed=13)
        sharded = msp_compress(graph, first, second, beta=2.0, seed=13, parallel=parallel)
        assert sharded.graph.nodes() == serial.graph.nodes()
        assert set(sharded.graph.edges()) == set(serial.graph.edges())
        assert sharded.graph.num_edges() == serial.graph.num_edges()


# ----------------------------------------------------------------------
# Word2Vec epoch sharding
class TestParallelWord2Vec:
    CONFIG = dict(vector_size=24, epochs=2, batch_size=16)

    def _train(self, parallel=None, sg=True):
        model = Word2Vec(
            Word2VecConfig(sg=sg, **self.CONFIG), seed=21, parallel=parallel
        )
        model.train(sentences_corpus())
        return model

    @pytest.mark.parametrize("sg", [True, False])
    def test_single_shard_bit_identical_to_serial(self, sg):
        serial = self._train(sg=sg)
        single = self._train(ParallelConfig(num_workers=1, num_shards=1), sg=sg)
        assert np.array_equal(serial._input_vectors, single._input_vectors)
        assert np.array_equal(serial._output_vectors, single._output_vectors)

    def test_worker_count_invariant_at_fixed_shards(self):
        one = self._train(ParallelConfig(num_workers=1, num_shards=2))
        two = self._train(ParallelConfig(num_workers=2, num_shards=2))
        assert np.array_equal(one._input_vectors, two._input_vectors)
        assert np.array_equal(one._output_vectors, two._output_vectors)

    def test_sharded_training_close_to_serial(self):
        # Sharded epochs apply per-shard deltas from the epoch-start
        # snapshot, so results differ from serial — but only by the
        # cross-shard interaction terms within one epoch.
        serial = self._train()
        sharded = self._train(ParallelConfig(num_workers=1, num_shards=4))
        assert serial._input_vectors.shape == sharded._input_vectors.shape
        diff = np.abs(serial._input_vectors - sharded._input_vectors).max()
        assert diff < 0.5

    def test_deterministic_across_runs(self):
        parallel = ParallelConfig(num_workers=2, num_shards=3)
        first = self._train(parallel)
        second = self._train(parallel)
        assert np.array_equal(first._input_vectors, second._input_vectors)


# ----------------------------------------------------------------------
# Pipeline end-to-end + CLI
def _pipeline_config(num_workers: int, num_shards=None) -> TDMatchConfig:
    config = TDMatchConfig.fast()
    config.compression = CompressionConfig(enabled=True, method="msp", ratio=1.0)
    config.parallel.num_workers = num_workers
    config.parallel.num_shards = num_shards
    return config


class TestPipelineParallel:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.datasets import ScenarioSize, generate_scenario

        return generate_scenario(
            "imdb_wt", size=ScenarioSize(n_entities=12, n_queries=16, n_distractors=6), seed=7
        )

    def _fit(self, scenario, num_workers, num_shards=None):
        pipeline = TDMatch(_pipeline_config(num_workers, num_shards), seed=23)
        pipeline.fit(scenario.first, scenario.second)
        return pipeline

    def test_single_shard_fit_matches_serial(self, scenario):
        serial = self._fit(scenario, 0)
        single = self._fit(scenario, 1, num_shards=1)
        assert np.array_equal(
            serial.state.model._input_vectors, single.state.model._input_vectors
        )
        assert single.match(k=10).as_id_lists() == serial.match(k=10).as_id_lists()
        assert serial.report()["parallel"] == {"num_workers": 0}
        assert single.report()["parallel"] == {"num_workers": 1, "shards": 1}
        assert single.report()["walks"]["engine"] == "csr"

    def test_worker_count_invariant_at_fixed_shards(self, scenario):
        one = self._fit(scenario, 1, num_shards=2)
        two = self._fit(scenario, 2, num_shards=2)
        assert np.array_equal(
            one.state.model._input_vectors, two.state.model._input_vectors
        )
        assert one.match(k=10).as_id_lists() == two.match(k=10).as_id_lists()


class TestCliNumWorkers:
    def test_flag_parses_into_config(self):
        args = cli.build_parser().parse_args(["--num-workers", "3"])
        assert args.num_workers == 3

    def test_cli_run_with_workers(self, capsys):
        code = cli.main(
            [
                "--scenario", "imdb_wt", "--size", "tiny", "--k", "5",
                "--num-walks", "4", "--walk-length", "8", "--vector-size", "32",
                "--epochs", "1", "--num-workers", "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
