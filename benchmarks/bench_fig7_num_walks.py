"""Figure 7 — match quality (MAP) with increasing number of walks per node.

More walks improve quality with diminishing returns; sparse graphs (such as
CoronaCheck) saturate earlier than dense ones (IMDb).

This module also measures the walk-generation throughput of the two walk
engines on the default benchmark graph: the vectorised CSR engine must beat
the reference engine by a wide margin, since walk generation is the
hottest stage of the whole pipeline (Algorithm 4 samples
``num_walks × num_nodes × walk_length`` neighbours).
"""

from __future__ import annotations

import time

from repro.eval.report import format_table
from repro.graph.walk_engine import CSRWalkEngine, PythonWalkEngine
from repro.graph.walks import RandomWalkConfig
from repro.utils.timing import TimingRegistry

from benchmarks.bench_utils import SMOKE, run_wrw, write_bench_json, write_result

SCENARIOS = ["imdb_wt"] if SMOKE else ["imdb_wt", "corona_gen", "politifact"]
NUM_WALKS = [2, 5] if SMOKE else [2, 5, 10, 20]

# Walk-generation speedup measurement (paper-shaped walk parameters).
SPEEDUP_NUM_WALKS = 5 if SMOKE else 20
SPEEDUP_WALK_LENGTH = 30


def _build_series():
    rows = []
    for scenario_name in SCENARIOS:
        for count in NUM_WALKS:
            run = run_wrw(scenario_name, num_walks=count)
            rows.append(
                {
                    "scenario": scenario_name,
                    "num_walks": count,
                    "engine": run.pipeline.report()["walks"]["engine"],
                    "MAP@5": round(run.report.map_at[5], 3),
                    "MRR": round(run.report.mrr, 3),
                }
            )
    return rows


def test_fig7_num_walks(benchmark):
    rows = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    table = format_table(rows, title="Figure 7: MAP@5 vs number of walks per node")
    print("\n" + table)
    write_result("fig7_num_walks", table)
    write_bench_json("fig7_num_walks", {"rows": rows})

    by_key = {(r["scenario"], r["num_walks"]): r["MAP@5"] for r in rows}
    for scenario_name in SCENARIOS:
        # More walks never hurt substantially (diminishing returns allowed).
        assert by_key[(scenario_name, NUM_WALKS[-1])] >= by_key[(scenario_name, 2)] - 0.1


def _time_engine(engine, seed: int = 11) -> float:
    """Seconds to generate (and consume) the full walk corpus once."""
    start = time.perf_counter()
    total = 0
    for walk in engine.iter_walks(seed=seed):
        total += len(walk)
    elapsed = time.perf_counter() - start
    assert total > 0
    return elapsed


def test_fig7_walk_engine_speedup():
    """CSR engine vs reference engine on the default benchmark graph."""
    graph = run_wrw("imdb_wt").graph
    registry = TimingRegistry()

    reference_cfg = RandomWalkConfig(
        num_walks=SPEEDUP_NUM_WALKS, walk_length=SPEEDUP_WALK_LENGTH, walk_engine="reference"
    )
    csr_cfg = RandomWalkConfig(
        num_walks=SPEEDUP_NUM_WALKS, walk_length=SPEEDUP_WALK_LENGTH, walk_engine="csr"
    )
    registry.add("walks_reference", _time_engine(PythonWalkEngine(graph, reference_cfg)))
    registry.add("walks_csr", _time_engine(CSRWalkEngine(graph, csr_cfg)))
    speedup = registry.total("walks_reference") / max(registry.total("walks_csr"), 1e-9)

    # The output rows come straight from the registry so the recorded
    # measurements are exactly what the table reports.
    rows = [
        {
            "graph_nodes": graph.num_nodes(),
            "graph_edges": graph.num_edges(),
            "num_walks": SPEEDUP_NUM_WALKS,
            "walk_length": SPEEDUP_WALK_LENGTH,
            "reference_s": round(registry.total("walks_reference"), 3),
            "csr_s": round(registry.total("walks_csr"), 3),
            "speedup": round(speedup, 1),
        }
    ]
    table = format_table(rows, title="Figure 7 (companion): walk-generation speedup")
    print("\n" + table)
    write_result("fig7_walk_engine_speedup", table)
    write_bench_json(
        "fig7_walk_engine_speedup",
        {
            "graph": {"nodes": graph.num_nodes(), "edges": graph.num_edges()},
            "params": {"num_walks": SPEEDUP_NUM_WALKS, "walk_length": SPEEDUP_WALK_LENGTH},
            "timings": registry.to_dict(),
            "speedup": {"measured": round(speedup, 2), "floor": 5.0},
        },
    )

    # The CSR engine is typically 10-40x faster here; assert a conservative
    # floor so the check stays robust on loaded CI machines.
    assert speedup >= 5.0, f"CSR walk engine speedup {speedup:.1f}x below 5x floor"
