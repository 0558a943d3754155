"""Command-line interface: run, persist, and serve matching experiments.

Subcommands::

    python -m repro.cli run --scenario imdb_wt --size tiny --k 5
    python -m repro.cli fit-save --scenario imdb_wt --index /tmp/imdb.tdm
    python -m repro.cli query --index /tmp/imdb.tdm --k 5 --json

``run`` generates the requested synthetic scenario, runs the W-RW pipeline
(optionally with expansion and compression), evaluates MRR / MAP@k /
HasPositive@k against the gold matches, and prints the result table plus
stage timings.  ``fit-save`` fits a pipeline and writes the single-file
serving index; ``query`` loads that index in a *fresh process* — no fit —
and serves ``match()`` from it, memory-mapping the embeddings by default.

Invoking the module with the pre-subcommand flat flags
(``python -m repro.cli --scenario imdb_wt``) still works and behaves like
``run``.  ``--json`` on any subcommand emits a machine-readable report
instead of the tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.core.blocking import TextQueryBlocker, TokenBlocking
from repro.core.config import CompressionConfig, ExpansionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import SCENARIO_GENERATORS, ScenarioSize, generate_scenario
from repro.eval.metrics import evaluate_rankings
from repro.eval.report import format_quality_table, format_table
from repro.parallel.reliability import ReliabilityConfig

_SIZES = {
    "tiny": ScenarioSize.tiny,
    "small": ScenarioSize.small,
    "medium": ScenarioSize.medium,
}

SUBCOMMANDS = ("run", "fit-save", "query")

#: How the stage-timings title names each ``ENGINE_STAGES`` engine.
ENGINE_LABELS = {
    "graph": "graph engine",
    "walks": "walk engine",
    "word2vec": "w2v trainer",
    "compression": "compression engine",
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="imdb_wt", choices=sorted(SCENARIO_GENERATORS), help="scenario name")
    parser.add_argument("--size", default="tiny", choices=sorted(_SIZES), help="scenario scale")
    parser.add_argument("--seed", type=int, default=7, help="random seed")


def _engine_assignment(value: str) -> Tuple[str, str]:
    """Split one ``--engine STAGE=NAME`` value.

    Stage and engine names are checked by ``TDMatchConfig.set_engines`` when
    the config is built.
    """
    stage, sep, name = value.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected STAGE=NAME, got {value!r}")
    return stage, name


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-walks", type=int, default=10, help="random walks per node")
    parser.add_argument("--walk-length", type=int, default=15, help="random walk length")
    defaults = ", ".join(f"{stage}={name}" for stage, name in TDMatchConfig().engines.items())
    parser.add_argument(
        "--engine",
        action="append",
        type=_engine_assignment,
        default=[],
        metavar="STAGE=NAME",
        help=f"select a stage's engine; repeatable. Every stage accepts 'reference'; "
        f"defaults: {defaults}",
    )
    parser.add_argument(
        "--retrieval-backend",
        choices=["dense", "blocked"],
        default="dense",
        help="matching backend: exact chunked dense top-k (default) or blocked scoring",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=1024,
        help="query rows scored per matmul by the dense backend (bounds memory)",
    )
    parser.add_argument(
        "--blocking",
        choices=["token", "neighborhood"],
        help="candidate blocker for the blocked backend (implies --retrieval-backend blocked): "
        "shared-token inverted index or graph neighbourhood",
    )
    parser.add_argument("--vector-size", type=int, default=64, help="embedding dimensionality")
    parser.add_argument("--epochs", type=int, default=2, help="Word2Vec epochs")
    parser.add_argument("--expansion", action="store_true", help="expand the graph with the scenario KB")
    parser.add_argument(
        "--compression",
        choices=["msp", "ssp", "ssum", "random-node", "random-edge"],
        help="compress the graph before learning embeddings",
    )
    parser.add_argument("--ratio", type=float, default=0.5, help="compression ratio / beta")
    parser.add_argument(
        "--num-workers",
        type=int,
        default=0,
        help="worker processes sharding the fit's compression sweep and Word2Vec epochs "
        "(0 = serial, the default; results are deterministic per shard count)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds a pooled shard task may run before its workers are killed "
        "and the round is retried (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="fresh-executor retries after a worker crash/timeout before the pool "
        "degrades or gives up (default: 1)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail the fit when retries are exhausted instead of degrading the "
        "remaining shard tasks to inline serial execution",
    )


def build_parser() -> argparse.ArgumentParser:
    """The legacy flat parser (``run`` semantics, no subcommand)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the TDmatch pipeline on a synthetic benchmark scenario.",
    )
    parser.add_argument("--list", action="store_true", help="list available scenarios and exit")
    _add_scenario_arguments(parser)
    parser.add_argument("--k", type=int, default=20, help="top-k candidates per query")
    _add_pipeline_arguments(parser)
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of tables")
    return parser


def build_fit_save_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fit-save",
        description="Fit the pipeline on a scenario and write a single-file serving index.",
    )
    _add_scenario_arguments(parser)
    parser.add_argument("--index", required=True, help="output path of the serving index")
    _add_pipeline_arguments(parser)
    parser.add_argument(
        "--mmap-default",
        action="store_true",
        help="record mmap=True as the index's default load mode",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of tables")
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Load a serving index (no fit) and rank candidates for every query.",
    )
    parser.add_argument("--index", required=True, help="path of a fit-save serving index")
    parser.add_argument("--k", type=int, default=20, help="top-k candidates per query")
    parser.add_argument(
        "--query-side",
        choices=["first", "second"],
        default="first",
        help="which corpus provides the queries",
    )
    mmap_group = parser.add_mutually_exclusive_group()
    mmap_group.add_argument(
        "--mmap", dest="mmap", action="store_true", default=None,
        help="memory-map the embeddings (processes share pages)",
    )
    mmap_group.add_argument(
        "--no-mmap", dest="mmap", action="store_false",
        help="load private writable copies of the embeddings",
    )
    parser.add_argument(
        "--verify",
        choices=["none", "header", "full"],
        default="header",
        help="corruption check before serving: structural only, plus header "
        "checksum (default), or a full CRC of every array blob",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of tables")
    return parser


def _config_for(
    parser: argparse.ArgumentParser, scenario, args: argparse.Namespace
) -> TDMatchConfig:
    """Build the pipeline config a ``run``/``fit-save`` invocation asked for.

    Sections are rebuilt with ``dataclasses.replace`` so each one's
    ``__post_init__`` validates the flag values: a bad value is a usage
    error (exit 2), not a traceback from deep inside the fit.
    """
    if scenario.task == "text-to-data":
        config = TDMatchConfig.for_text_to_data()
    else:
        config = TDMatchConfig.for_text_tasks()
    try:
        config.walks = replace(config.walks, num_walks=args.num_walks, walk_length=args.walk_length)
        config.word2vec = replace(config.word2vec, vector_size=args.vector_size, epochs=args.epochs)
        config.parallel = replace(
            config.parallel,
            num_workers=args.num_workers,
            reliability=ReliabilityConfig(
                task_timeout=args.task_timeout,
                max_retries=args.max_retries,
                degrade_serial=not args.no_degrade,
            ),
        )
        config.retrieval = replace(
            config.retrieval,
            # --blocking implies the blocked backend
            backend="blocked" if args.blocking else args.retrieval_backend,
            chunk_size=args.chunk_size,
        )
        if args.compression:
            config.compression = CompressionConfig(
                enabled=True, method=args.compression, ratio=args.ratio
            )
        config.set_engines(dict(args.engine))
    except ValueError as exc:
        parser.error(str(exc))
    if args.expansion and scenario.kb is not None:
        config.expansion = ExpansionConfig(resource=scenario.kb)
    return config


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.list:
        rows = [{"scenario": name} for name in sorted(SCENARIO_GENERATORS)]
        print(format_table(rows, title="Available scenarios"))
        return 0

    scenario = generate_scenario(args.scenario, size=_SIZES[args.size](), seed=args.seed)
    config = _config_for(parser, scenario, args)
    emit_json = getattr(args, "json", False)
    if not emit_json:
        print(format_table([scenario.summary()], title="Scenario"))

    pipeline = TDMatch(config, seed=args.seed)
    pipeline.fit(scenario.first, scenario.second)
    fitted = pipeline.report()
    if not emit_json:
        print(
            f"\ngraph: {pipeline.graph.num_nodes()} nodes, {pipeline.graph.num_edges()} edges"
        )
        comp = fitted.get("compression")
        if comp is not None:
            print(
                f"compression: {comp['method']} engine={comp['engine'] or '-'} "
                f"nodes {comp['nodes_before']}->{comp['nodes_after']} "
                f"edges {comp['edges_before']}->{comp['edges_after']}"
            )

    # Token blocking needs the corpus texts, which the fitted pipeline does
    # not retain — build the blocker from the scenario and hand it over.
    blocker = None
    if args.blocking == "token":
        token_blocking = TokenBlocking().fit(scenario.candidate_texts())
        blocker = TextQueryBlocker(token_blocking, scenario.query_texts())

    result = pipeline.match_result(k=args.k, blocker=blocker)
    rankings = result.rankings
    stats = result.retrieval
    report = evaluate_rankings("w-rw", rankings, scenario.gold, ks=(1, 5, min(20, args.k)))

    if emit_json:
        print(
            json.dumps(
                {
                    "scenario": scenario.summary(),
                    "quality": report.as_dict(),
                    "result": result.to_dict(),
                    "report": pipeline.report(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    print(
        f"retrieval: backend={stats.backend} scored_pairs={stats.scored_pairs}"
        f"/{stats.all_pairs} reduction_ratio={stats.reduction_ratio:.3f}"
    )
    print()
    print(format_quality_table([report], ks=(1, 5, min(20, args.k)), title="Match quality"))

    timing_rows = [
        {"stage": stage, "seconds": round(seconds, 3)}
        for stage, seconds in pipeline.timings.as_dict().items()
    ]
    print()
    # The walk engine that ran differs from the configured one after a CSR fallback.
    ran = dict(fitted["engines"], walks=fitted["walks"]["engine"])
    engines = ", ".join(f"{ENGINE_LABELS[stage]}: {name}" for stage, name in ran.items())
    pairs_per_sec = fitted["model"]["pairs_per_sec"]
    print(
        format_table(timing_rows, title=f"Stage timings ({engines}, {pairs_per_sec:.0f} pairs/s)")
    )
    return 0


def run_fit_save(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.blocking == "token":
        # The index keeps no corpus texts, so a query process could not
        # rebuild the token blocker.
        parser.error("--blocking token cannot be saved in an index; use --blocking neighborhood")
    scenario = generate_scenario(args.scenario, size=_SIZES[args.size](), seed=args.seed)
    config = _config_for(parser, scenario, args)
    config.serving.mmap = bool(args.mmap_default)

    pipeline = TDMatch(config, seed=args.seed)
    pipeline.fit(scenario.first, scenario.second)
    path = pipeline.save(args.index)

    import os

    payload = {
        "index": path,
        "index_bytes": os.path.getsize(path),
        "scenario": scenario.summary(),
        "report": pipeline.report(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table([scenario.summary()], title="Scenario"))
    print(
        f"\nindex written: {path} ({payload['index_bytes']} bytes, "
        f"{pipeline.graph.num_nodes()} nodes, vocab "
        f"{len(pipeline.model.vocab)}, mmap default: {config.serving.mmap})"
    )
    return 0


def run_query(args: argparse.Namespace) -> int:
    pipeline = TDMatch.load(args.index, mmap=args.mmap, verify=args.verify)
    result = pipeline.match_result(k=args.k, query_side=args.query_side)

    if args.json:
        print(
            json.dumps(
                {"result": result.to_dict(), "report": pipeline.report()},
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    rows = []
    for ranking in result.rankings:
        top = ranking.candidates[0] if ranking.candidates else ("-", float("nan"))
        rows.append(
            {
                "query": ranking.query_id,
                "top candidate": top[0],
                "score": round(float(top[1]), 4),
                "candidates": len(ranking.candidates),
            }
        )
    mmap = pipeline.report()["serving"]["mmap"]
    print(
        format_table(
            rows,
            title=f"Top-{args.k} serving results ({args.index}, mmap={mmap})",
        )
    )
    stats = result.retrieval
    if stats is not None:
        print(
            f"\nretrieval: backend={stats.backend} scored_pairs={stats.scored_pairs}"
            f"/{stats.all_pairs} reduction_ratio={stats.reduction_ratio:.3f}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommand dispatch only when the first token names one; everything
    # else (including no arguments) parses with the legacy flat parser so
    # pre-subcommand invocations keep working unchanged.
    if argv and argv[0] in SUBCOMMANDS:
        command, argv = argv[0], argv[1:]
        if command == "query":
            return run_query(build_query_parser().parse_args(argv))
        if command == "fit-save":
            parser = build_fit_save_parser()
            return run_fit_save(parser.parse_args(argv), parser)
    parser = build_parser()
    return run(parser.parse_args(argv), parser)


if __name__ == "__main__":
    sys.exit(main())
