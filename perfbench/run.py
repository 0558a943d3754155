"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work twice, traced then untraced, and prints the per-layer metrics, the
tracing overhead and a per-operation breakdown.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: One BLAS thread: on a small shared machine a second thread spins against
#: the workload's own Python work and makes small matmuls (queries, Word2Vec
#: batches) several times noisier without making them faster.
BLAS_THREADS = "1"


def _pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(workload, seed) -> dict:
    import numpy
    import scipy

    from workloads import CONFIRMATION_OFFSET

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    size = workload.size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "confirmation_seed": seed + CONFIRMATION_OFFSET,
        "scenario": {
            "name": "imdb_wt",
            "n_entities": size.n_entities,
            "n_queries": size.n_queries,
            "n_distractors": size.n_distractors,
            "held_out_reviews": workload.held_out,
        },
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    import layers
    import workloads as wl
    from tracer import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    env = _environment(workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    recorders = []
    error = None
    metrics: dict = {}
    try:
        inputs, setup_seconds, setup_fits, setup_model = wl.setup(workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            recorders = [wl.Recorder(tracer), wl.Recorder()]
            absent = layers.install(tracer)
            try:
                traced = wl.run_pass(workload, inputs, args.seed, args.seconds, workdir,
                                     "traced", recorders[0], setup_model)
            finally:
                tracer.uninstall()
            plain = wl.run_pass(workload, inputs, args.seed, args.seconds, workdir,
                                "plain", recorders[1], setup_model)
            problems = tracer.check()
            if problems:
                raise wl.CheckFailed("trace: " + "; ".join(problems[:5]))
            if traced.digests != plain.digests:
                raise wl.CheckFailed("tracing changed the fitted embeddings")
            for result in (traced, plain):
                wl.end_to_end(workload, result, setup_seconds, setup_fits)  # its checks
            print("fit_digest " + plain.digests[0])
            values, status = layers.derive(tracer, absent)
            ops = set(traced.recorder.samples)
            traced_s = traced.recorder.total(ops)
            plain_s = plain.recorder.total(ops)
            values["trace.overhead_s"] = traced_s - plain_s
            values["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
            if traced.fit_seconds:
                values["trace.fit_overhead_s"] = (
                    statistics.median(traced.fit_seconds) - statistics.median(plain.fit_seconds)
                )
            else:
                values["trace.fit_overhead_s"] = 0.0
                status["trace.fit_overhead_s"] = "idle"
            metrics = {
                name: _metric(values[name], unit) for name, (unit, _) in layers.PER_LAYER.items()
            }
            detail = {
                "by_op": tracer.by_op(),
                "by_span": tracer.by_name(),
                "absent": absent,
                "status": status,
                "traced_op_s": traced_s,
                "untraced_op_s": plain_s,
            }
            print("trace " + json.dumps(detail, sort_keys=True))
            for name, (unit, _) in layers.PER_LAYER.items():
                note = f"  [{status[name]}]" if name in status else ""
                print(f"{name:42s} {values[name]:14.6f} {unit}{note}")
        else:
            recorders = [wl.Recorder()]
            result = wl.run_pass(workload, inputs, args.seed, args.seconds, workdir,
                                 "plain", recorders[0], setup_model)
            values, notes = wl.end_to_end(workload, result, setup_seconds, setup_fits)
            metrics = {name: _metric(values[name], unit) for name, unit in wl.END_TO_END.items()}
            print("fit_digest " + result.digests[0])
            for name, unit in wl.END_TO_END.items():
                note = f"  ({notes[name]})" if name in notes else ""
                print(f"{name:16s} {values[name]:14.6f} {unit}{note}")
    except (wl.CheckFailed, wl.OpFailed) as exc:
        error = exc
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    print(json.dumps({
        "correct": error is None,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
