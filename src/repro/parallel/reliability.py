"""Worker-pool supervision policy and structured failure telemetry.

:class:`ReliabilityConfig` is the knob set :class:`~repro.parallel.shm.WorkerPool`
consults when a shard task misbehaves: how long a task may run
(``task_timeout``), how many times a failed round is retried
(``max_retries``, with ``retry_backoff * 2**attempt`` sleeps between
rounds), and whether — once retries are exhausted — the pool degrades to
inline serial execution (``degrade_serial``) instead of aborting the fit.

Degradation is *safe* because of the parallel layer's determinism
contract: shard results are fixed by the shard plan, not by which process
executes them, so the inline rerun is bit-identical to what the healthy
pool would have produced.

Every timeout / crash / retry / degradation is recorded as a
:class:`ReliabilityEvent` in a module-level, thread-safe collector.
:meth:`TDMatch.fit` and the incremental deltas drain the collector onto
the pipeline, whose ``report()["reliability"]`` (and so the CLI
``--json`` output) lists every event as a dict; a reader counts them by
``kind`` to see exactly what went wrong and how it was absorbed.  The
collector lives here — not on the pool — because pools are created per
stage deep inside fit stages that never see the pipeline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class WorkerFailureError(RuntimeError):
    """A pooled task could not be completed within the reliability policy.

    Raised only when retries are exhausted *and* serial degradation is
    disabled (``degrade_serial=False``); with degradation on, the pool
    absorbs worker loss and this error never escapes.
    """


@dataclass
class ReliabilityConfig:
    """Supervision policy for :class:`~repro.parallel.shm.WorkerPool`.

    task_timeout:
        Seconds a single pooled task may run before it is declared hung
        and its workers are killed.  ``None`` (default) waits forever —
        the pre-supervision behaviour.
    max_retries:
        How many fresh executors to try after a crash/timeout before
        giving up on the pool.  ``0`` disables retry.
    retry_backoff:
        Base sleep (seconds) between retry rounds; round ``i`` sleeps
        ``retry_backoff * 2**i``.  Keeps a crash-looping machine from
        spinning through its retry budget instantly.
    degrade_serial:
        When ``True`` (default), exhausting retries falls back to running
        the remaining tasks inline in the parent process — slower, but
        bit-identical by the shard determinism contract.  When ``False``
        the pool raises :class:`WorkerFailureError` instead.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 1
    retry_backoff: float = 0.1
    degrade_serial: bool = True

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None to wait forever)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")


@dataclass
class ReliabilityEvent:
    """One supervision incident: a timeout, crash, retry round, or degradation."""

    kind: str  # "timeout" | "crash" | "retry" | "degraded"
    pool: str  # pool label, e.g. "word2vec" / "compression"
    task: int  # task index within the pool run (-1: whole round)
    attempt: int  # 0-based attempt number the incident happened on
    detail: str = ""

    def summary(self) -> str:
        where = f"task {self.task}" if self.task >= 0 else "round"
        text = f"{self.pool}:{self.kind} ({where}, attempt {self.attempt})"
        if self.detail:
            text += f": {self.detail}"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "pool": self.pool,
            "task": self.task,
            "attempt": self.attempt,
            "detail": self.detail,
        }


_events: List[ReliabilityEvent] = []
_events_lock = threading.Lock()


def record_event(event: ReliabilityEvent) -> None:
    """Append a supervision incident to the process-wide collector."""
    with _events_lock:
        _events.append(event)


def drain_events() -> List[ReliabilityEvent]:
    """Remove and return all collected incidents (oldest first)."""
    with _events_lock:
        drained = list(_events)
        _events.clear()
    return drained
