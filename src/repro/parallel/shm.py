"""Shared-memory plumbing of the parallel fit: arena, attach, shard plan, pool.

The parent process owns every segment: :class:`ShmArena` creates them (one
copy of each input array, plus zero-initialised output blocks) and
guarantees close+unlink on exit — **including when a worker raises
mid-fit** — so a failing shard never leaks ``/dev/shm`` segments.  Workers
attach segments by name (:func:`attached`), getting zero-copy views of the
CSR arrays; attachment unregisters from the resource tracker so the
parent's unlink stays the single authority and interpreter shutdown stays
warning-free.

:class:`WorkerPool` wraps ``ProcessPoolExecutor`` behind the
``ParallelConfig`` switch: ``num_workers<=1`` executes tasks inline in the
parent (the parity path — same task functions, same shard plan, no
processes), anything above fans out.  Keep the arena *outside* the pool
context so workers finish (or die) before segments are unlinked.
:func:`shard_ranges` is the shard plan both sharded stages split their
work by.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.parallel.config import ParallelConfig
from repro.parallel.reliability import (
    ReliabilityEvent,
    WorkerFailureError,
    record_event,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Mirrors repro.testing.faults.FAULT_PLAN_ENV without importing the test
#: harness on the hot path: injection code loads only when the env is set.
_FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Sentinel marking a task slot whose result has not been produced yet.
_PENDING = object()


def _supervised_call(fn, index: int, args: tuple):
    """Worker-side task wrapper: the fault-injection seam.

    Runs in the worker process.  When a fault plan is active in the
    environment (test harness only), :func:`repro.testing.faults.maybe_inject`
    may crash, hang, or fail this call deterministically; otherwise this is
    a plain ``fn(*args)``.  Inline and degraded-serial execution call ``fn``
    directly and therefore bypass injection — degradation always succeeds.
    """
    if os.environ.get(_FAULT_PLAN_ENV):
        from repro.testing.faults import maybe_inject

        maybe_inject(index)
    return fn(*args)


@dataclass(frozen=True)
class SharedArray:
    """A picklable descriptor of one shared-memory numpy array."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Only the creating arena may own a segment's lifetime.  On Python < 3.13
    attaching registers with the resource tracker too, which double-books
    the segment: a spawn-started worker's own tracker would unlink it at
    worker exit (the classic "leaked shared_memory" unlink race), and under
    fork an unregister from the shared tracker would break the parent's
    entry instead.  Suppressing registration for the attach sidesteps both;
    3.13+ exposes this directly as ``track=False``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class ShmArena:
    """Context manager owning a set of shared-memory segments.

    Every segment created through :meth:`share` / :meth:`empty` is closed
    and unlinked on ``__exit__`` no matter how the block terminates; a
    worker exception propagates *after* cleanup.  The class-level
    :meth:`live_segments` view exists for leak regression tests.
    """

    _live: Set[str] = set()

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[str, np.ndarray] = {}

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Close and unlink every segment (idempotent, exception-safe)."""
        self._views.clear()
        for name, segment in list(self._segments.items()):
            try:
                segment.close()
            except BufferError:
                # A caller still holds a view; unlink regardless — the
                # mapping stays valid until the last reference drops.
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except Exception as exc:  # pragma: no cover - platform-specific
                logger.warning("could not unlink shared memory %s: %s", name, exc)
            ShmArena._live.discard(name)
        self._segments.clear()

    @classmethod
    def live_segments(cls) -> Set[str]:
        """Names of segments created by any arena and not yet unlinked."""
        return set(cls._live)

    # -- allocation ----------------------------------------------------
    def _create(self, nbytes: int) -> shared_memory.SharedMemory:
        segment = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments[segment.name] = segment
        ShmArena._live.add(segment.name)
        return segment

    def share(self, array: np.ndarray) -> SharedArray:
        """Copy ``array`` into a new segment and return its descriptor."""
        array = np.ascontiguousarray(array)
        segment = self._create(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._views[segment.name] = view
        return SharedArray(segment.name, tuple(array.shape), str(array.dtype))

    def empty(self, shape: Sequence[int], dtype) -> Tuple[SharedArray, np.ndarray]:
        """A zero-initialised output block: (descriptor, parent view)."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        segment = self._create(nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        view[...] = 0
        self._views[segment.name] = view
        return SharedArray(segment.name, shape, str(dtype)), view

    def view(self, desc: SharedArray) -> np.ndarray:
        """The parent-side view of a segment created by this arena."""
        return self._views[desc.name]


@contextmanager
def attached(*descs: SharedArray):
    """Worker-side zero-copy views of shared segments, by descriptor.

    Yields one ndarray per descriptor; handles are closed (not unlinked —
    the creating arena owns that) when the block exits.
    """
    segments: List[shared_memory.SharedMemory] = []
    arrays: List[np.ndarray] = []
    try:
        for desc in descs:
            segment = _attach_untracked(desc.name)
            segments.append(segment)
            arrays.append(np.ndarray(desc.shape, dtype=np.dtype(desc.dtype), buffer=segment.buf))
        yield arrays
    finally:
        del arrays
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a view escaped; process exit cleans up
                pass


def shard_ranges(n: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges splitting ``n`` items into shards.

    Always returns ``num_shards`` ranges (possibly empty ones when
    ``num_shards > n``): the plan depends only on the shard count, never
    on clamping.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base, extra = divmod(max(0, int(n)), num_shards)
    ranges = []
    lo = 0
    for i in range(num_shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class WorkerPool:
    """Supervised task fan-out behind the ``ParallelConfig.num_workers`` switch.

    Beyond plain fan-out, :meth:`run` enforces the pool's
    :class:`~repro.parallel.reliability.ReliabilityConfig`: hung tasks are
    timed out (workers killed), crashed workers (``BrokenProcessPool``) are
    detected, the failed round is retried on a fresh executor with
    exponential backoff, and — once retries are exhausted — the remaining
    tasks degrade to inline serial execution, which is bit-identical to the
    pooled result because shard outputs are fixed by the shard plan, never
    by which process ran them.  Every incident is recorded through
    :func:`repro.parallel.reliability.record_event` for the pipeline to
    surface in ``report()``.
    """

    def __init__(self, config: ParallelConfig, label: str = "pool"):
        self.config = config
        self.label = label
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def inline(self) -> bool:
        return self.config.num_workers <= 1

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _kill_executor(self) -> None:
        """Tear the executor down without waiting on hung or dead workers."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # Killing first matters for the timeout path: a hung worker never
        # drains the call queue, so a waiting shutdown would hang with it.
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead race
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _harvest(futures: Dict[int, object], results: List[object]) -> None:
        """Keep results of tasks that finished cleanly before the round broke."""
        for index, future in futures.items():
            if results[index] is not _PENDING or not future.done() or future.cancelled():
                continue
            if future.exception() is None:
                results[index] = future.result()

    def run(self, fn, tasks: Sequence[tuple]) -> List[object]:
        """Run ``fn(*task)`` for every task, returning results in order.

        Inline mode (and a single task) runs in the parent — the same code
        path the workers execute, which is what makes ``num_workers=1`` the
        bit-exact baseline of any worker count at a fixed shard plan.

        A task *exception* (``fn`` raised) is deterministic and propagates
        immediately — the executor is shut down with ``cancel_futures=True``
        so slow sibling tasks cannot delay the error.  Worker *loss* (crash
        or timeout) is absorbed per the reliability policy: completed
        results are harvested, the round is retried on a fresh executor,
        and exhausted retries degrade to inline execution or raise
        :class:`~repro.parallel.reliability.WorkerFailureError`.
        """
        tasks = list(tasks)
        if self.inline or len(tasks) <= 1:
            return [fn(*args) for args in tasks]
        reliability = self.config.reliability
        results: List[object] = [_PENDING] * len(tasks)
        pending = list(range(len(tasks)))
        attempt = 0
        while pending:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=min(self.config.num_workers, len(pending)),
                    mp_context=get_context(self.config.start_method()),
                )
            futures = {
                index: self._executor.submit(_supervised_call, fn, index, tasks[index])
                for index in pending
            }
            failure: Optional[ReliabilityEvent] = None
            current = pending[0]
            try:
                for current in pending:
                    results[current] = futures[current].result(
                        timeout=reliability.task_timeout
                    )
            except FuturesTimeoutError:
                failure = ReliabilityEvent(
                    "timeout",
                    self.label,
                    current,
                    attempt,
                    f"no result within {reliability.task_timeout}s; workers killed",
                )
                self._harvest(futures, results)
                self._kill_executor()
            except BrokenExecutor as exc:
                failure = ReliabilityEvent(
                    "crash",
                    self.label,
                    current,
                    attempt,
                    f"worker died ({type(exc).__name__})",
                )
                self._harvest(futures, results)
                self._kill_executor()
            except BaseException:
                # Deterministic task error: propagate promptly.  The old
                # future.cancel() loop was a no-op for running futures and
                # still waited on stragglers at shutdown.
                self._kill_executor()
                raise
            if failure is None:
                break
            record_event(failure)
            logger.warning("worker pool %s: %s", self.label, failure.summary())
            pending = [i for i in range(len(tasks)) if results[i] is _PENDING]
            if attempt >= reliability.max_retries:
                if not reliability.degrade_serial:
                    raise WorkerFailureError(
                        f"pool {self.label!r}: {len(pending)} task(s) still failing "
                        f"after {attempt + 1} attempt(s) ({failure.summary()}) and "
                        "serial degradation is disabled"
                    )
                record_event(
                    ReliabilityEvent(
                        "degraded",
                        self.label,
                        -1,
                        attempt,
                        f"{len(pending)} task(s) rerun inline after "
                        f"{attempt + 1} failed attempt(s)",
                    )
                )
                logger.warning(
                    "worker pool %s: degrading %d task(s) to inline serial execution",
                    self.label,
                    len(pending),
                )
                for index in pending:
                    results[index] = fn(*tasks[index])
                pending = []
                break
            attempt += 1
            record_event(
                ReliabilityEvent(
                    "retry",
                    self.label,
                    -1,
                    attempt,
                    f"{len(pending)} task(s) resubmitted on a fresh executor",
                )
            )
            backoff = reliability.retry_backoff * (2 ** (attempt - 1))
            if backoff > 0:
                time.sleep(backoff)
        return results
