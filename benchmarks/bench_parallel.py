"""Parallel fit — sharded compression/word2vec stages vs the serial fit.

The claim of the parallel layer, measured rather than assumed: on the
Figure 8 scaling scenario (with walk counts, epochs, and an MSP
compression pass raised so the sharded stages dominate the fit), a
multi-worker fit must beat the serial fit wall-clock — floor 2.5x at four
workers — while staying *exactly* quality-equal:

* ``num_workers=1, num_shards=1`` is bit-identical to the serial fit
  (same embedding matrices, same rankings);
* at a fixed shard count, every worker count produces identical output
  (``num_workers=1`` vs ``num_workers=N`` at ``num_shards=N``), so the
  speedup run's rankings are pinned to the verified single-worker run.

The speedup floor is asserted only when the machine actually has the cores
(``os.cpu_count() >= NUM_WORKERS``); on smaller runners the measurement is
still taken and recorded in the JSON artifact, keeping CI portable.
``REPRO_BENCH_WORKERS`` overrides the worker count (CI smoke uses 2).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.config import CompressionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_sts_scenario
from repro.eval.report import format_table

from benchmarks.bench_utils import SMOKE, write_bench_json, write_result

NUM_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2" if SMOKE else "4"))
SIZE = (
    ScenarioSize(n_entities=40, n_queries=90, n_distractors=20)
    if SMOKE
    else ScenarioSize(n_entities=80, n_queries=180, n_distractors=40)
)


def _config(num_workers: int, num_shards=None) -> TDMatchConfig:
    """The fig8 text-task config with the sharded stages doing real work."""
    config = TDMatchConfig.for_text_tasks()
    config.walks.num_walks = 12 if SMOKE else 24
    config.walks.walk_length = 20 if SMOKE else 30
    config.word2vec.vector_size = 48
    config.word2vec.epochs = 3 if SMOKE else 5
    config.compression = CompressionConfig(enabled=True, method="msp", ratio=4.0)
    config.parallel.num_workers = num_workers
    config.parallel.num_shards = num_shards
    return config


def _fit(num_workers: int, num_shards=None):
    """Fit one pipeline on the scaling scenario; returns (pipeline, seconds)."""
    scenario = generate_sts_scenario(SIZE, seed=71, threshold=0)
    pipeline = TDMatch(_config(num_workers, num_shards), seed=9)
    start = time.perf_counter()
    pipeline.fit(scenario.first, scenario.second)
    return pipeline, time.perf_counter() - start


def _model_matrices(pipeline):
    model = pipeline.state.model
    return model._input_vectors, model._output_vectors


def _rankings(pipeline):
    return pipeline.match(k=20).as_id_lists()


def test_parallel_fit_speedup():
    serial, serial_s = _fit(0)

    # Parity anchor 1: one shard on one worker is bit-identical to serial.
    inline, _ = _fit(1, num_shards=1)
    s_in, s_out = _model_matrices(serial)
    i_in, i_out = _model_matrices(inline)
    assert np.array_equal(s_in, i_in) and np.array_equal(s_out, i_out), (
        "num_workers=1/num_shards=1 fit is not bit-identical to the serial fit"
    )
    serial_rankings = _rankings(serial)
    assert _rankings(inline) == serial_rankings

    # Parity anchor 2: at the speedup run's shard count, worker count is
    # irrelevant to the output — the multi-worker run inherits the
    # single-worker run's exactness.
    one_worker, _ = _fit(1, num_shards=NUM_WORKERS)
    pooled, pooled_s = _fit(NUM_WORKERS)
    assert pooled.config.parallel.shards == NUM_WORKERS
    o_in, o_out = _model_matrices(one_worker)
    p_in, p_out = _model_matrices(pooled)
    assert np.array_equal(o_in, p_in) and np.array_equal(o_out, p_out), (
        f"num_workers={NUM_WORKERS} fit diverges from num_workers=1 at the same shard count"
    )
    assert _rankings(pooled) == _rankings(one_worker)

    # The parallel layer actually engaged; walks stay on the serial engine.
    pooled_report = pooled.report()
    assert pooled_report["walks"]["engine"] == "csr"
    assert pooled_report["parallel"] == {"num_workers": NUM_WORKERS, "shards": NUM_WORKERS}
    assert serial.report()["parallel"] == {"num_workers": 0}

    speedup = serial_s / max(pooled_s, 1e-9)
    floor = 2.5 if NUM_WORKERS >= 4 else 1.1
    cores = os.cpu_count() or 1
    floor_asserted = cores >= NUM_WORKERS

    rows = [
        {
            "fit": "serial",
            "num_workers": 0,
            "total_s": round(serial_s, 2),
            **{
                stage: round(serial.timings.as_dict().get(stage, 0.0), 2)
                for stage in ("walks", "compression", "word2vec")
            },
        },
        {
            "fit": "parallel",
            "num_workers": NUM_WORKERS,
            "total_s": round(pooled_s, 2),
            **{
                stage: round(pooled.timings.as_dict().get(stage, 0.0), 2)
                for stage in ("walks", "compression", "word2vec")
            },
        },
    ]
    table = format_table(
        rows, title=f"Parallel fit: serial vs {NUM_WORKERS} workers (speedup {speedup:.2f}x)"
    )
    print("\n" + table)
    write_result("parallel_fit", table)
    write_bench_json(
        "parallel_fit",
        {
            "num_workers": NUM_WORKERS,
            "num_shards": NUM_WORKERS,
            "cpu_count": cores,
            "scenario_size": {
                "n_entities": SIZE.n_entities,
                "n_queries": SIZE.n_queries,
                "n_distractors": SIZE.n_distractors,
            },
            "timings": {
                "serial": serial.timings.as_dict(),
                "parallel": pooled.timings.as_dict(),
            },
            "speedup": {
                "measured": round(speedup, 2),
                "floor": floor,
                "asserted": floor_asserted,
            },
        },
    )
    if floor_asserted:
        assert speedup >= floor, (
            f"parallel fit speedup {speedup:.2f}x below floor {floor}x "
            f"at {NUM_WORKERS} workers on {cores} cores"
        )
