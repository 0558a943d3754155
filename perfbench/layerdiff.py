"""Compare two traced runs layer by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 20 --trace 1 > parent.txt
    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 20 --trace 1 > change.txt
    python3 perfbench/layerdiff.py parent.txt change.txt

Each input is the standard output of ``run.py --trace 1``.  The report
has three tables: the per-layer metrics; per operation, the wall time and
the self time of every layer inside it (``unattributed`` is the time in the
API call outside every wrapped layer); and per span, calls, self and
inclusive seconds and counters, so that each ratio is shown with its base.
Changes are given as B − A and as B / A.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Tuple


def load(path: str) -> Tuple[dict, dict]:
    """The trace detail and the metrics of one ``run.py --trace 1`` output."""
    detail = None
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    for line in lines:
        if line.startswith("trace "):
            detail = json.loads(line[len("trace "):])
    if detail is None or not lines:
        raise SystemExit(f"{path}: no trace line; was it written by run.py --trace 1?")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"warning: {path} reports correct=false", file=sys.stderr)
    return detail, result["metrics"]


def _row(name: str, a: float, b: float, unit: str = "") -> str:
    ratio = f"{b / a:8.3f}" if a else "       -"
    return f"{name:48s} {a:14.6g} {b:14.6g} {b - a:+14.6g} {ratio}  {unit}"


def _largest_first(entry: Tuple[str, float, float]) -> float:
    return -max(entry[1], entry[2])


def _header(title: str) -> str:
    return f"\n{title}\n{'':48s} {'A':>14s} {'B':>14s} {'B - A':>14s} {'B / A':>8s}"


def report(a_path: str, b_path: str) -> str:
    a_detail, a_metrics = load(a_path)
    b_detail, b_metrics = load(b_path)
    out = [f"A = {a_path}", f"B = {b_path}", _header("per-layer metrics")]
    for name in sorted(set(a_metrics) | set(b_metrics)):
        a = a_metrics.get(name, {}).get("value", 0.0)
        b = b_metrics.get(name, {}).get("value", 0.0)
        unit = (a_metrics.get(name) or b_metrics.get(name))["unit"]
        notes = [
            f"{side}:{detail['status'][name]}"
            for side, detail in (("A", a_detail), ("B", b_detail))
            if name in detail.get("status", {})
        ]
        out.append(_row(name, a, b, unit) + (f"  [{' '.join(notes)}]" if notes else ""))

    a_ops: Dict[str, dict] = a_detail["by_op"]
    b_ops: Dict[str, dict] = b_detail["by_op"]
    for op in sorted(set(a_ops) | set(b_ops)):
        a_row = a_ops.get(op, {"ops": 0, "wall_s": 0.0, "self_s": {}})
        b_row = b_ops.get(op, {"ops": 0, "wall_s": 0.0, "self_s": {}})
        calls = f"{a_row['ops']} (A) / {b_row['ops']} (B) calls"
        out.append(_header(f"operation {op}: {calls}, self seconds"))
        out.append(_row("wall", a_row["wall_s"], b_row["wall_s"], "s"))
        pairs = [
            (span, a_row["self_s"].get(span, 0.0), b_row["self_s"].get(span, 0.0))
            for span in set(a_row["self_s"]) | set(b_row["self_s"])
        ]
        pairs.sort(key=_largest_first)
        for span, a, b in pairs:
            out.append(_row("  " + span, a, b, "s"))

    a_spans, b_spans = a_detail["by_span"], b_detail["by_span"]
    out.append(_header("spans: calls, seconds and counters"))
    for span in sorted(set(a_spans) | set(b_spans)):
        empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counters": {}}
        a_row, b_row = a_spans.get(span, empty), b_spans.get(span, empty)
        out.append(f"{span}")
        out.append(_row("  calls", a_row["calls"], b_row["calls"], "count"))
        out.append(_row("  self_s", a_row["self_s"], b_row["self_s"], "s"))
        out.append(_row("  incl_s", a_row["incl_s"], b_row["incl_s"], "s"))
        for key in sorted(set(a_row["counters"]) | set(b_row["counters"])):
            a, b = a_row["counters"].get(key, 0.0), b_row["counters"].get(key, 0.0)
            out.append(_row("  " + key, a, b))

    for side, detail in (("A", a_detail), ("B", b_detail)):
        for span, targets in sorted(detail.get("absent", {}).items()):
            out.append(f"{side}: {span} absent (missing {', '.join(targets)})")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two traced runs layer by layer.")
    parser.add_argument("a", help="output of run.py --trace 1 (the base, e.g. the parent commit)")
    parser.add_argument("b", help="output of run.py --trace 1 (e.g. the change)")
    args = parser.parse_args(argv)
    print(report(args.a, args.b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
