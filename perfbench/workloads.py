"""The benchmark's workloads and the code that runs one of them.

Every workload drives the public ``TDMatch`` API in one process with the
serial engines (``parallel.num_workers=0``):

* a **fit phase** — fresh ``TDMatch`` objects fitted on the scenario
  (timed on the fit workloads, part of set-up on serve-mixed), each checked
  for complete, finite rankings, an MRR floor and a bit-identical embedding
  matrix across fits (SHA-256 digest);
* a **serve session** on the saved index — ``load(mmap=True,
  verify="full")`` plus the first ``match_result``, then a closed loop with
  one client and no think time.  Each cycle adds one ``add_documents``
  batch of held-out reviews, removes the previous cycle's batch, makes
  ``reads_per_cycle`` ``match_result(k=20)`` calls alternating the query
  side, saves the index and cold-starts a second server from the saved
  file (load plus first answer).  Rankings after every load must equal the
  rankings before the save that wrote the index; added ids must appear in
  the rankings and removed ids must not.

The amount of work is fixed by the workload and ``--seconds`` (never by
measured speed), so a parent commit and a change always do identical work
and their tail percentiles cover the same sample counts.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import CompressionConfig, ExpansionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.corpus.documents import TextCorpus
from repro.datasets import ScenarioSize, generate_scenario

from tracer import Tracer, peak_rss_mb

K = 20
SETUP_REPEATS = 5
#: Run length (seconds) at which each workload does its listed amount of work.
REFERENCE_SECONDS = 20.0
#: Tail latencies are taken at the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: End-to-end metric → unit, in the order they are printed.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "fit_s": "s",
    "mrr": "1",
    "peak_rss_mb": "MB",
    "load_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "delta_p50_ms": "ms",
    "delta_tail_ms": "ms",
    "remove_p50_ms": "ms",
    "save_ms": "ms",
    "delta_mrr": "1",
    "ops_per_s": "1/s",
}
#: Offset of the confirmation seed: re-check a claim with ``--seed seed + offset``.
CONFIRMATION_OFFSET = 1_000_003


@dataclass(frozen=True)
class ServePlan:
    cycles: int
    reads_per_cycle: int
    batch_docs: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: ScenarioSize
    make_config: Callable[[object], TDMatchConfig]
    fits: int  # timed fits at REFERENCE_SECONDS; 0 fits once per set-up instead
    held_out: int  # reviews kept out of the fit and added back by the serve loop
    serve: ServePlan
    mrr_floor: float
    delta_mrr_floor: float


def _paper_config(_scenario) -> TDMatchConfig:
    config = TDMatchConfig.for_text_to_data()
    config.walks.num_walks = 10
    config.parallel.num_workers = 0
    return config


def _compress_config(scenario) -> TDMatchConfig:
    config = TDMatchConfig.fast()
    config.expansion = ExpansionConfig(resource=scenario.kb)
    config.compression = CompressionConfig(enabled=True, method="msp", ratio=0.5)
    config.parallel.num_workers = 0
    return config


def _serve_config(_scenario) -> TDMatchConfig:
    config = TDMatchConfig.fast()
    config.parallel.num_workers = 0
    return config


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fit-paper",
            why="the paper's text-to-data setting (skip-gram, window 3, walk length 30); "
            "Word2Vec does almost all of the fit",
            size=ScenarioSize(60, 79, 30),
            make_config=_paper_config,
            fits=4,
            held_out=30,
            serve=ServePlan(cycles=40, reads_per_cycle=4, batch_docs=5),
            mrr_floor=0.9,
            delta_mrr_floor=0.05,
        ),
        Workload(
            name="fit-compress",
            why="expand-and-compress (scenario KB, MSP at ratio 0.5) on a large corpus; "
            "compression leads the fit",
            size=ScenarioSize(1000, 1500, 500),
            make_config=_compress_config,
            fits=1,
            held_out=400,
            serve=ServePlan(cycles=31, reads_per_cycle=2, batch_docs=20),
            mrr_floor=0.4,
            delta_mrr_floor=0.05,
        ),
        Workload(
            name="serve-mixed",
            why="the serving path: index load, reads on both sides, incremental "
            "adds and removes, save; no fit in the timed part",
            size=ScenarioSize(300, 450, 150),
            make_config=_serve_config,
            fits=0,
            held_out=200,
            serve=ServePlan(cycles=40, reads_per_cycle=8, batch_docs=10),
            mrr_floor=0.4,
            delta_mrr_floor=0.05,
        ),
    )
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OpFailed(Exception):
    """A call into the program raised."""


# ----------------------------------------------------------------------
# Inputs
@dataclass
class Inputs:
    seed: int
    scenario: object
    fit_corpus: TextCorpus
    fit_gold: Dict[str, Set[str]]
    held_docs: List[Tuple[str, str]]  # (doc id, text) of held-out reviews


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The scenario for ``seed`` with ``held_out`` reviews split off the fit corpus."""
    scenario = generate_scenario("imdb_wt", workload.size, seed=seed)
    docs = list(scenario.first)
    rng = np.random.default_rng([seed, len(docs)])
    held = set(rng.choice(len(docs), size=workload.held_out, replace=False).tolist())
    fit_corpus = TextCorpus(
        (doc for i, doc in enumerate(docs) if i not in held), name=scenario.first.name
    )
    held_docs = [(docs[i].doc_id, docs[i].text) for i in sorted(held)]
    fit_gold = {doc.doc_id: scenario.gold[doc.doc_id] for doc in fit_corpus}
    return Inputs(seed, scenario, fit_corpus, fit_gold, held_docs)


# ----------------------------------------------------------------------
# Checks
def rankings_of(result) -> Dict[str, List[Tuple[str, float]]]:
    return {r.query_id: list(r.candidates) for r in result.rankings}


def check_rankings(
    rankings: Dict[str, List[Tuple[str, float]]],
    queries: Set[str],
    candidates: Set[str],
    forbidden: Set[str],
    what: str,
) -> None:
    """Every expected query ranked, ``min(k, n_candidates)`` finite-score candidates."""
    if set(rankings) != queries:
        extra = sorted(set(rankings) - queries)[:3]
        missing = sorted(queries - set(rankings))[:3]
        raise CheckFailed(f"{what}: query ids differ (extra {extra}, missing {missing})")
    want = min(K, len(candidates))
    for query_id, ranked in rankings.items():
        if len(ranked) != want:
            raise CheckFailed(f"{what}: query {query_id} has {len(ranked)} candidates, want {want}")
        for candidate_id, score in ranked:
            if candidate_id not in candidates or candidate_id in forbidden:
                raise CheckFailed(f"{what}: query {query_id} ranks unexpected id {candidate_id}")
            if not math.isfinite(score):
                raise CheckFailed(f"{what}: query {query_id} has a non-finite score")


def reciprocal_ranks(rankings, gold: Dict[str, Set[str]], ids) -> List[float]:
    ranks = []
    for query_id in ids:
        relevant = gold[query_id]
        ranked = [candidate_id for candidate_id, _ in rankings.get(query_id, [])]
        ranks.append(next((1.0 / (i + 1) for i, c in enumerate(ranked) if c in relevant), 0.0))
    return ranks


def matrix_digest(model) -> str:
    matrix = np.ascontiguousarray(model.embedding_matrix())
    return hashlib.sha256(matrix.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Timing
class Recorder:
    """Times operations; with a tracer, each operation is also a root span."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        context = self.tracer.op(name) if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with context:
                result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{name} raised {type(exc).__name__}: {exc}") from exc
        self.samples.setdefault(name, []).append(time.perf_counter() - start)
        return result

    def total(self, names) -> float:
        return sum(sum(self.samples.get(name, [])) for name in names)


SERVE_OPS = ("load", "match", "add_documents", "remove", "save")


def scaled(count: int, seconds: float, minimum: int) -> int:
    return max(minimum, round(count * seconds / REFERENCE_SECONDS))


# ----------------------------------------------------------------------
# Phases
def fit_once(workload: Workload, inputs: Inputs, seed: int, recorder: Optional[Recorder]):
    """A fresh ``TDMatch`` fitted on the inputs; returns it and its fit seconds."""
    model = TDMatch(workload.make_config(inputs.scenario), seed=seed)
    start = time.perf_counter()
    if recorder is None:
        model.fit(inputs.fit_corpus, inputs.scenario.second)
    else:
        recorder.run("fit", model.fit, inputs.fit_corpus, inputs.scenario.second)
    return model, time.perf_counter() - start


def check_fit(model, inputs: Inputs, workload: Workload) -> Dict[str, object]:
    """Rankings of both sides of a fitted model, checked; returns them with MRR and digest."""
    movies = set(inputs.scenario.candidate_ids())
    reviews = set(inputs.fit_gold)
    first = rankings_of(model.match_result(k=K, query_side="first"))
    second = rankings_of(model.match_result(k=K, query_side="second"))
    check_rankings(first, reviews, movies, set(), "fit rankings (first side)")
    check_rankings(second, movies, reviews, set(), "fit rankings (second side)")
    mrr = statistics.fmean(reciprocal_ranks(first, inputs.fit_gold, sorted(reviews)))
    if mrr < workload.mrr_floor:
        raise CheckFailed(f"MRR {mrr:.4f} is below the floor {workload.mrr_floor}")
    return {"first": first, "second": second, "mrr": mrr, "digest": matrix_digest(model.model)}


def pool_order(seed: int, pool: int, cycle: int, batch: int) -> List[int]:
    """Held-out indices of one cycle's batch.

    Batches walk through a seeded permutation of the pool, so every
    held-out review is added once before any is added again, and each pass
    over the pool uses a new permutation.
    """
    picks = []
    for position in range(cycle * batch, (cycle + 1) * batch):
        lap, offset = divmod(position, pool)
        picks.append(int(np.random.default_rng([seed, lap]).permutation(pool)[offset]))
    return picks


def load_and_answer(path: str):
    """Cold start to first answer: ``load`` plus the first ``match_result``."""
    loaded = TDMatch.load(path, mmap=True, verify="full")
    return loaded, loaded.match_result(k=K, query_side="first")


def serve_session(
    workload: Workload,
    inputs: Inputs,
    index_path: str,
    session_path: str,
    reference: Dict[str, object],
    recorder: Recorder,
    seconds: float,
) -> List[float]:
    """The closed serve loop on the index; returns the added reviews' reciprocal ranks."""
    plan = workload.serve
    movies = set(inputs.scenario.candidate_ids())
    reviews = set(inputs.fit_gold)  # live first-side ids, tracked independently
    gold = dict(inputs.scenario.gold)

    pipeline, first_answer = recorder.run("load", load_and_answer, index_path)
    if rankings_of(first_answer) != reference["first"]:
        raise CheckFailed("rankings after load differ from the rankings before save")

    removed: Set[str] = set()
    delta_ranks: List[float] = []
    previous: List[str] = []
    held = inputs.held_docs
    for cycle in range(scaled(plan.cycles, seconds, TAIL_BEYOND + 1)):
        batch = []
        for pick in pool_order(inputs.seed, len(held), cycle, plan.batch_docs):
            doc_id, text = held[pick]
            new_id = f"{doc_id}a{cycle:04d}"
            gold[new_id] = gold[doc_id]
            batch.append((new_id, text))
        recorder.run("add_documents", pipeline.add_documents, batch, side="first")
        added = [doc_id for doc_id, _ in batch]
        reviews.update(added)
        if previous:
            recorder.run("remove", pipeline.remove, previous, side="first")
            reviews.difference_update(previous)
            removed.update(previous)
        previous = added
        for read in range(plan.reads_per_cycle):
            side = "first" if read % 2 == 0 else "second"
            result = recorder.run("match", pipeline.match_result, k=K, query_side=side)
            rankings = rankings_of(result)
            if side == "first":
                check_rankings(rankings, reviews, movies, removed, f"cycle {cycle} read {read}")
                if read == 0:
                    delta_ranks.extend(reciprocal_ranks(rankings, gold, added))
                last_first = rankings
            else:
                check_rankings(rankings, movies, reviews, removed, f"cycle {cycle} read {read}")

        # Persist the cycle, then cold-start a second server from the file;
        # nothing changed since the last first-side read.
        recorder.run("save", pipeline.save, session_path)
        _, first_answer = recorder.run("load", load_and_answer, session_path)
        if rankings_of(first_answer) != last_first:
            raise CheckFailed(f"cycle {cycle}: rankings after load differ from before save")

    before = {
        "first": rankings_of(pipeline.match_result(k=K, query_side="first")),
        "second": rankings_of(pipeline.match_result(k=K, query_side="second")),
    }
    check_rankings(before["first"], reviews, movies, removed, "rankings before the last save")
    check_rankings(before["second"], movies, reviews, removed, "rankings before the last save")
    reloaded = TDMatch.load(session_path, mmap=False, verify="full")
    after = {
        "first": rankings_of(reloaded.match_result(k=K, query_side="first")),
        "second": rankings_of(reloaded.match_result(k=K, query_side="second")),
    }
    if after != before:
        raise CheckFailed("rankings after load differ from the rankings before the last save")
    return delta_ranks


# ----------------------------------------------------------------------
# Statistics
def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise CheckFailed(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class PassResult:
    recorder: Recorder
    fit_seconds: List[float]
    reference: Dict[str, object]
    digests: List[str]
    delta_ranks: List[float]


def run_pass(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    seconds: float,
    workdir: str,
    tag: str,
    recorder: Recorder,
    setup_model=None,
) -> PassResult:
    """Fit phase (fit workloads) and one serve session."""
    fit_seconds: List[float] = []
    digests: List[str] = []
    model = setup_model
    if workload.fits:
        for _ in range(scaled(workload.fits, seconds, 1)):
            model = None  # one fitted model alive at a time
            model, elapsed = fit_once(workload, inputs, seed, recorder)
            fit_seconds.append(elapsed)
            reference = check_fit(model, inputs, workload)
            digests.append(reference["digest"])
    else:
        reference = check_fit(model, inputs, workload)
        digests.append(reference["digest"])
    if len(set(digests)) != 1:
        raise CheckFailed(f"fits with one seed gave different embeddings: {sorted(set(digests))}")
    index_path = os.path.join(workdir, f"{tag}-index.tdm")
    model.save(index_path)
    model = None
    delta_ranks = serve_session(
        workload,
        inputs,
        index_path,
        os.path.join(workdir, f"{tag}-session.tdm"),
        reference,
        recorder,
        seconds,
    )
    return PassResult(recorder, fit_seconds, reference, digests, delta_ranks)


def setup(
    workload: Workload, seed: int, workdir: str
) -> Tuple[Inputs, List[float], List[float], object]:
    """Set up ``SETUP_REPEATS`` times: inputs, plus fit and save on serve-mixed.

    Returns the last inputs, each set-up's seconds, the set-up fits' seconds
    and the last set-up model (None on the fit workloads).
    """
    setup_seconds: List[float] = []
    fit_seconds: List[float] = []
    for _ in range(SETUP_REPEATS):
        inputs = model = None
        start = time.perf_counter()
        inputs = make_inputs(workload, seed)
        if not workload.fits:
            model, elapsed = fit_once(workload, inputs, seed, None)
            fit_seconds.append(elapsed)
            model.save(os.path.join(workdir, "setup-index.tdm"))
        setup_seconds.append(time.perf_counter() - start)
    return inputs, setup_seconds, fit_seconds, model


def end_to_end(
    workload: Workload,
    result: PassResult,
    setup_seconds: List[float],
    setup_fit_seconds: List[float],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics of one pass, and notes on how the tails were taken."""
    samples = result.recorder.samples
    query_tail, query_pct = tail(samples["match"])
    delta_tail, delta_pct = tail(samples["add_documents"])
    delta_mrr = statistics.fmean(result.delta_ranks)
    if delta_mrr < workload.delta_mrr_floor:
        raise CheckFailed(
            f"delta MRR {delta_mrr:.4f} is below the floor {workload.delta_mrr_floor}"
        )
    serve_ops = sum(len(samples.get(name, [])) for name in SERVE_OPS)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "fit_s": statistics.median(result.fit_seconds or setup_fit_seconds),
        "mrr": result.reference["mrr"],
        "peak_rss_mb": peak_rss_mb(),
        "load_ms": 1000 * statistics.median(samples["load"]),
        "query_p50_ms": 1000 * statistics.median(samples["match"]),
        "query_tail_ms": 1000 * query_tail,
        "delta_p50_ms": 1000 * statistics.median(samples["add_documents"]),
        "delta_tail_ms": 1000 * delta_tail,
        "remove_p50_ms": 1000 * statistics.median(samples["remove"]),
        "save_ms": 1000 * statistics.median(samples["save"]),
        "delta_mrr": delta_mrr,
        "ops_per_s": serve_ops / result.recorder.total(SERVE_OPS),
    }
    notes = {
        "query_tail_ms": f"p{query_pct:.1f} of {len(samples['match'])} samples",
        "delta_tail_ms": f"p{delta_pct:.1f} of {len(samples['add_documents'])} samples",
        "fit_s": (
            f"median of {len(result.fit_seconds)} timed fits"
            if result.fit_seconds
            else f"median of {len(setup_fit_seconds)} set-up fits"
        ),
    }
    return values, notes
