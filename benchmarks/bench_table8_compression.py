"""Table VIII — compression performance across the five scenarios.

For every scenario the paper compares the original graph, the expanded
graph, MSP at β=0.5 and β=0.25, and SSuM at compression ratio 0.1, in terms
of graph size (#nodes, #edges) and matching quality (MRR).

The companion bench (:func:`test_table8_compression_engine_speedup`) times
the bulk multi-source-BFS compression engine against the reference per-pair
path-enumeration loop on the default bench graph at β=0.5, asserting exact
node/edge parity under seeded sampling and a wall-clock speedup floor.
"""

from __future__ import annotations

import time

from repro.eval.report import format_table
from repro.graph.builder import GraphBuilder
from repro.graph.compression import msp_compress
from repro.graph.expansion import expand_graph

from benchmarks.bench_utils import (
    SMOKE,
    get_scenario,
    run_wrw,
    write_bench_json,
    write_result,
    wrw_config,
)

SCENARIOS = ["imdb_wt", "corona_gen", "snopes", "politifact", "audit"]

CONFIGS = [
    ("original", dict(expansion=False)),
    ("expanded", dict(expansion=True)),
    ("msp(0.5)", dict(expansion=True, compression_method="msp", compression_ratio=0.5)),
    ("msp(0.25)", dict(expansion=True, compression_method="msp", compression_ratio=0.25)),
    ("ssum(0.1)", dict(expansion=True, compression_method="ssum", compression_ratio=0.1)),
]


def _scenario_rows(scenario_name: str):
    rows = []
    for label, kwargs in CONFIGS:
        run = run_wrw(scenario_name, **kwargs)
        rows.append(
            {
                "scenario": scenario_name,
                "graph": label,
                "#N": run.graph.num_nodes(),
                "#E": run.graph.num_edges(),
                "MRR": round(run.report.mrr, 3),
            }
        )
    return rows


def _build_table():
    rows = []
    for scenario_name in SCENARIOS:
        rows.extend(_scenario_rows(scenario_name))
    return rows


def test_table8_compression(benchmark):
    rows = benchmark.pedantic(_build_table, rounds=1, iterations=1)
    table = format_table(rows, title="Table VIII: compression performance (#nodes, #edges, MRR)")
    print("\n" + table)
    write_result("table8_compression", table)
    write_bench_json("table8_compression", {"rows": rows})

    by_key = {(r["scenario"], r["graph"]): r for r in rows}
    for scenario_name in SCENARIOS:
        original = by_key[(scenario_name, "original")]
        expanded = by_key[(scenario_name, "expanded")]
        msp_half = by_key[(scenario_name, "msp(0.5)")]
        msp_quarter = by_key[(scenario_name, "msp(0.25)")]
        # Expansion never reduces the number of edges.
        assert expanded["#E"] >= original["#E"] * 0.5
        # MSP compresses the expanded graph and stays a subgraph of it.
        assert msp_half["#N"] <= expanded["#N"]
        assert msp_quarter["#N"] <= expanded["#N"]
        # Quality stays a valid probability everywhere.
        for label, _ in CONFIGS:
            assert 0.0 <= by_key[(scenario_name, label)]["MRR"] <= 1.0


# ----------------------------------------------------------------------
# Companion: bulk vs reference compression engine
BENCH_BETA = 0.5
BENCH_COMPRESSION_SEED = 11
# Large enough that the reference enumeration is never truncated, the
# regime in which the engines are set-for-set identical.
UNBOUNDED_PATHS = 10**6


def _compression_engine_series():
    scenario = get_scenario("imdb_wt")
    config = wrw_config(scenario.task)
    built = GraphBuilder(config.builder).build(scenario.first, scenario.second)
    if scenario.kb is not None:
        expand_graph(built.graph, scenario.kb)
    graph = built.graph
    first, second = built.first_labels(), built.second_labels()

    rounds = 2 if SMOKE else 5
    rows = []
    results = {}
    times = {}
    for engine in ("reference", "bulk"):
        best = float("inf")
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = msp_compress(
                graph,
                first,
                second,
                beta=BENCH_BETA,
                seed=BENCH_COMPRESSION_SEED,
                max_paths_per_pair=UNBOUNDED_PATHS,
                engine=engine,
            )
            best = min(best, time.perf_counter() - start)
        results[engine] = result
        times[engine] = best
        rows.append(
            {
                "engine": engine,
                "best_ms": round(best * 1000.0, 2),
                "#N": result.nodes_after,
                "#E": result.edges_after,
            }
        )
    rows[-1]["speedup"] = round(times["reference"] / times["bulk"], 2)
    return rows, results


def test_table8_compression_engine_speedup(benchmark):
    rows, results = benchmark.pedantic(_compression_engine_series, rounds=1, iterations=1)
    table = format_table(
        rows,
        title=f"Table VIII companion: msp(β={BENCH_BETA}) compression, bulk vs reference engine",
    )
    print("\n" + table)
    write_result("table8_compression_engine", table)

    # Exact parity under seeded sampling: same compressed node list (the
    # canonical order that keeps downstream walk ids engine-independent),
    # same undirected edge set, same size ratios.
    reference, bulk = results["reference"], results["bulk"]
    assert reference.graph.nodes() == bulk.graph.nodes()
    assert set(reference.graph.edges()) == set(bulk.graph.edges())
    assert reference.graph.num_edges() == bulk.graph.num_edges()
    assert reference.node_ratio == bulk.node_ratio
    assert reference.edge_ratio == bulk.edge_ratio

    speedup = rows[-1]["speedup"]
    floor = 3.0 if SMOKE else 5.0  # smoke shares noisier CI runners
    write_bench_json(
        "table8_compression_engine",
        {
            "params": {"beta": BENCH_BETA, "seed": BENCH_COMPRESSION_SEED},
            "graph": {"nodes": bulk.nodes_after, "edges": bulk.edges_after},
            "timings": {
                row["engine"]: {"best_s": round(row["best_ms"] / 1000.0, 4)} for row in rows
            },
            "speedup": {"measured": speedup, "floor": floor},
        },
    )
    assert speedup >= floor, f"bulk compression speedup {speedup}x below floor {floor}x"

    # The pipeline records which engine compressed the graph.
    run = run_wrw(
        "imdb_wt", expansion=True, compression_method="msp",
        compression_ratio=BENCH_BETA, compression_engine="bulk",
    )
    assert run.pipeline.report()["compression"]["engine"] == "bulk"
