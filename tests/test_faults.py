"""Deterministic fault-injection suite (see ``repro.testing.faults``).

Proves the reliability layer's three acceptance properties:

1. a crashed or hung shard worker is retried and — once retries are
   exhausted — degraded to inline serial execution with *bit-identical*
   fit output, the incidents visible in ``report()``;
2. a ``save()`` interrupted at any byte boundary leaves the previous
   index intact and loadable (atomic temp-file + rename);
3. any single flipped byte in a v2 index blob raises
   ``IndexCorruptionError`` under ``verify="full"``, while v1 indexes
   (no checksums) still load.
"""

import os
import time

import numpy as np
import pytest

from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.parallel import (
    ParallelConfig,
    ReliabilityConfig,
    WorkerFailureError,
    drain_events,
)
from repro.parallel.shm import WorkerPool
from repro.serving.index import (
    IndexCorruptionError,
    IndexFormatError,
    blob_ranges,
    read_index,
)
from repro.testing.faults import (
    FAULT_PLAN_ENV,
    FaultInjectionError,
    FaultPlan,
    active,
    downgrade_index_to_v1,
    flip_byte,
    maybe_inject,
    truncate_file,
    write_failure,
)


# ----------------------------------------------------------------------
# Module-level task functions (picklable under fork and spawn)
def _double(x):
    return x * 2


def _reliability(**kwargs) -> ParallelConfig:
    return ParallelConfig(num_workers=2, reliability=ReliabilityConfig(**kwargs))


# ----------------------------------------------------------------------
# Plan mechanics
class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(kind="hang", task=3, times=2, hang_seconds=5.0, scratch="/tmp/x")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, num_tasks=8, kind="kill")
        b = FaultPlan.seeded(7, num_tasks=8, kind="kill")
        assert a == b
        assert 0 <= a.task < 8

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(kind="explode", task=0)
        with pytest.raises(ValueError):
            FaultPlan(kind="kill", task=0, times=0)

    def test_active_sets_and_restores_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        with active(FaultPlan(kind="fail", task=1), tmp_path) as armed:
            assert armed.scratch == str(tmp_path)
            assert FaultPlan.from_json(os.environ[FAULT_PLAN_ENV]) == armed
        assert FAULT_PLAN_ENV not in os.environ

    def test_fault_fires_exactly_times(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        with active(FaultPlan(kind="fail", task=2, times=2), tmp_path):
            maybe_inject(0)  # wrong task: no-op
            for _ in range(2):
                with pytest.raises(FaultInjectionError):
                    maybe_inject(2)
            maybe_inject(2)  # slots spent: no-op
        maybe_inject(2)  # disarmed: no-op


# ----------------------------------------------------------------------
# Acceptance 1 — worker supervision at the pool level
class TestWorkerPoolSupervision:
    TASKS = [(i,) for i in range(4)]
    EXPECTED = [0, 2, 4, 6]

    def test_crash_is_retried_and_results_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        drain_events()
        with active(FaultPlan.seeded(11, num_tasks=4, kind="kill"), tmp_path):
            with WorkerPool(_reliability(max_retries=1), label="test") as pool:
                assert pool.run(_double, self.TASKS) == self.EXPECTED
        kinds = [e.kind for e in drain_events()]
        assert "crash" in kinds and "retry" in kinds and "degraded" not in kinds

    def test_crash_exhausts_retries_then_degrades(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        drain_events()
        with active(FaultPlan(kind="kill", task=1, times=10), tmp_path):
            with WorkerPool(_reliability(max_retries=1), label="test") as pool:
                assert pool.run(_double, self.TASKS) == self.EXPECTED
        kinds = [e.kind for e in drain_events()]
        assert kinds.count("crash") == 2  # initial round + one retry
        assert "degraded" in kinds

    def test_no_degrade_raises_worker_failure(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        drain_events()
        with active(FaultPlan(kind="kill", task=0, times=10), tmp_path):
            with WorkerPool(
                _reliability(max_retries=1, degrade_serial=False), label="test"
            ) as pool:
                with pytest.raises(WorkerFailureError, match="degradation is disabled"):
                    pool.run(_double, self.TASKS)
        drain_events()

    def test_hung_task_times_out_and_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        drain_events()
        with active(FaultPlan(kind="hang", task=2, hang_seconds=60.0), tmp_path):
            with WorkerPool(
                _reliability(task_timeout=1.5, max_retries=1, retry_backoff=0.0),
                label="test",
            ) as pool:
                start = time.monotonic()
                assert pool.run(_double, self.TASKS) == self.EXPECTED
                assert time.monotonic() - start < 30  # never waits out the hang
        kinds = [e.kind for e in drain_events()]
        assert "timeout" in kinds and "retry" in kinds

    def test_task_exception_is_not_retried(self, tmp_path, monkeypatch):
        # A deterministic in-task exception is the caller's bug, not worker
        # loss: it must propagate unchanged, with no retry round.
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        drain_events()
        with active(FaultPlan(kind="fail", task=1, times=10), tmp_path):
            with WorkerPool(_reliability(max_retries=3), label="test") as pool:
                with pytest.raises(FaultInjectionError):
                    pool.run(_double, self.TASKS)
        assert drain_events() == []

    def test_failure_propagates_despite_slow_sibling(self):
        # Satellite regression: the old failure path called future.cancel()
        # (a no-op on running futures) and then waited for stragglers at
        # shutdown — a deliberately slow sibling would stall the error by
        # its full 30s sleep.
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="task exploded"):
            with WorkerPool(ParallelConfig(num_workers=2), label="test") as pool:
                pool.run(_mixed_task, [("fail",), ("slow",)])
        assert time.monotonic() - start < 15


def _mixed_task(mode):
    if mode == "fail":
        raise RuntimeError("task exploded")
    time.sleep(30)
    return "done"


# ----------------------------------------------------------------------
# Acceptance 1 — end-to-end fit
def _fit_config(num_workers: int, **reliability) -> TDMatchConfig:
    config = TDMatchConfig.fast()
    config.walks.num_walks = 4
    config.walks.walk_length = 8
    config.word2vec.vector_size = 32
    config.word2vec.epochs = 1
    config.parallel.num_workers = num_workers
    config.parallel.num_shards = 2
    if reliability:
        config.reliability = ReliabilityConfig(**reliability)
    return config


class TestPipelineFaults:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.datasets import ScenarioSize, generate_scenario

        return generate_scenario(
            "imdb_wt", size=ScenarioSize(n_entities=10, n_queries=12, n_distractors=5), seed=7
        )

    def _fit(self, scenario, num_workers, **reliability):
        pipeline = TDMatch(_fit_config(num_workers, **reliability), seed=23)
        pipeline.fit(scenario.first, scenario.second)
        return pipeline

    def test_crashed_worker_retried_bit_identical(self, scenario, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        baseline = self._fit(scenario, 2)
        assert baseline.report()["reliability"] == []
        with active(FaultPlan(kind="kill", task=0, times=1), tmp_path):
            faulted = self._fit(scenario, 2)
        assert np.array_equal(
            baseline.state.model._input_vectors, faulted.state.model._input_vectors
        )
        report = faulted.report()
        kinds = [e["kind"] for e in report["reliability"]]
        assert "crash" in kinds and "retry" in kinds
        assert sum(kind in ("crash", "timeout") for kind in kinds) >= 1
        assert kinds.count("retry") >= 1

    def test_persistent_crash_degrades_bit_identical(self, scenario, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        baseline = self._fit(scenario, 2)
        with active(FaultPlan(kind="kill", task=0, times=50), tmp_path):
            degraded = self._fit(scenario, 2, max_retries=1, retry_backoff=0.0)
        assert np.array_equal(
            baseline.state.model._input_vectors, degraded.state.model._input_vectors
        )
        assert degraded.match(k=5).as_id_lists() == baseline.match(k=5).as_id_lists()
        report = degraded.report()
        assert [e["kind"] for e in report["reliability"]].count("degraded") >= 1

    def test_clean_refit_reports_no_earlier_incidents(self, scenario, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        pipeline = TDMatch(_fit_config(2), seed=23)
        with active(FaultPlan(kind="kill", task=0, times=1), tmp_path):
            pipeline.fit(scenario.first, scenario.second)
        assert pipeline.report()["reliability"]
        pipeline.fit(scenario.first, scenario.second)
        report = pipeline.report()
        assert report["reliability"] == []
        # Timings hold only timings: no incident counts outlive their fit.
        assert set(report["timings"]) == {"stages"}


# ----------------------------------------------------------------------
# Acceptance 2 — torn saves leave the previous index intact
class TestDurableSave:
    @pytest.fixture(scope="class")
    def fitted(self):
        from repro.datasets import ScenarioSize, generate_scenario

        scenario = generate_scenario(
            "imdb_wt", size=ScenarioSize(n_entities=8, n_queries=10, n_distractors=4), seed=5
        )
        pipeline = TDMatch(_fit_config(0), seed=17)
        pipeline.fit(scenario.first, scenario.second)
        return pipeline

    def test_interrupted_save_preserves_previous_index(self, fitted, tmp_path):
        path = str(tmp_path / "index.tdm")
        fitted.save(path)
        with open(path, "rb") as handle:
            baseline = handle.read()
        size = len(baseline)
        # Crash the write at boundaries across the whole container: inside
        # the preamble, the header, blob padding, and the final byte.
        for boundary in [0, 1, 19, 24, 150, size // 2, size - 1]:
            with write_failure(boundary):
                with pytest.raises(OSError, match="injected write failure"):
                    fitted.save(path)
            with open(path, "rb") as handle:
                assert handle.read() == baseline, f"boundary {boundary} tore the index"
            TDMatch.load(path, verify="full")  # still fully loadable
        assert sorted(os.listdir(tmp_path)) == ["index.tdm"]  # no tmp litter

    def test_interrupted_first_save_leaves_nothing(self, fitted, tmp_path):
        path = str(tmp_path / "fresh.tdm")
        with write_failure(100):
            with pytest.raises(OSError):
                fitted.save(path)
        assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# Acceptance 3 — checksums catch every flipped byte; v1 still loads
class TestChecksumDetection:
    @pytest.fixture(scope="class")
    def index_path(self, tmp_path_factory):
        from repro.datasets import ScenarioSize, generate_scenario

        scenario = generate_scenario(
            "imdb_wt", size=ScenarioSize(n_entities=8, n_queries=10, n_distractors=4), seed=5
        )
        pipeline = TDMatch(_fit_config(0), seed=17)
        pipeline.fit(scenario.first, scenario.second)
        path = str(tmp_path_factory.mktemp("idx") / "index.tdm")
        pipeline.save(path)
        return path

    def test_flipped_blob_byte_raises_naming_the_blob(self, index_path, tmp_path):
        import shutil

        for name, (offset, nbytes) in blob_ranges(index_path).items():
            if nbytes == 0:
                continue
            for position in (0, nbytes // 2, nbytes - 1):
                copy = str(tmp_path / "corrupt.tdm")
                shutil.copyfile(index_path, copy)
                flip_byte(copy, offset + position)
                with pytest.raises(IndexCorruptionError, match=repr(name)):
                    read_index(copy, verify="full")
                # Default header verification does not read blob bytes, so
                # it loads — that trade-off is the point of the modes.
                read_index(copy, verify="header")

    def test_flipped_header_byte_caught_by_default_verify(self, index_path, tmp_path):
        import shutil

        copy = str(tmp_path / "rot.tdm")
        shutil.copyfile(index_path, copy)
        flip_byte(copy, 30)  # inside the JSON header
        with pytest.raises(IndexCorruptionError, match="header checksum"):
            read_index(copy)  # verify="header" is the default
        # Structural-only mode skips the CRC but still fails *cleanly* on
        # the now-undecodable header — never with a raw codec/json error.
        with pytest.raises(IndexFormatError):
            read_index(copy, verify="none")

    def test_truncated_index_fails_loudly(self, index_path, tmp_path):
        import shutil

        copy = str(tmp_path / "cut.tdm")
        shutil.copyfile(index_path, copy)
        truncate_file(copy, os.path.getsize(copy) // 2)
        with pytest.raises(IndexCorruptionError):
            read_index(copy, verify="none")

    def test_v1_index_still_loads_and_serves(self, index_path, tmp_path):
        v1 = downgrade_index_to_v1(index_path, str(tmp_path / "v1.tdm"))
        header, arrays = read_index(v1, verify="full")  # degrades to structural
        _, v2_arrays = read_index(index_path, verify="full")
        for name in v2_arrays:
            assert np.array_equal(np.asarray(arrays[name]), np.asarray(v2_arrays[name]))
        baseline = TDMatch.load(index_path)
        loaded = TDMatch.load(v1)
        assert loaded.match(k=5).as_id_lists() == baseline.match(k=5).as_id_lists()
