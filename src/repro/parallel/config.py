"""Configuration of the sharded parallel fit (see :mod:`repro.parallel`).

``ParallelConfig`` is one switch: the default (``num_workers=0``) leaves
the serial engines untouched, and ``num_workers >= 1`` shards the two
stages measured to pay — compression's DAG-union sweep and the Word2Vec
epochs.  Random walks always run the serial CSR engine.

Determinism contract
--------------------
Results are deterministic *per shard count*, not across shard counts:

* ``num_workers=0`` is the untouched serial pipeline.
* ``num_workers>=1`` runs the sharded engines; the shard plan is fixed by
  ``num_shards`` (default: ``num_workers``), so any worker count executing
  the same plan — including ``num_workers=1``, which runs the shards
  in-process — produces bit-identical results.
* A single-shard plan (``num_shards=1``) is bit-identical to
  ``num_workers=0``.
* Compression sharding is RNG-free (pair sampling happens before the BFS
  sweep), so its output is identical to serial at *any* shard count, and
  walks are serial, so the walk corpus equals serial at any shard count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel.reliability import ReliabilityConfig

_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass
class ParallelConfig:
    """Sharded-fit options.

    Parameters
    ----------
    num_workers:
        Worker processes for the sharded fit stages (compression and
        Word2Vec).  ``0`` (default) disables the parallel layer entirely;
        ``1`` executes the shard plan in-process (no worker processes — the
        parity baseline for any ``num_workers=N`` run with the same
        ``num_shards``).
    num_shards:
        Number of shards each stage splits its work into; ``None`` uses
        ``num_workers``.  The shard count — not the worker count — is what
        fixes the Word2Vec delta boundaries and therefore the results.
    mp_context:
        Multiprocessing start method; ``None`` picks ``fork`` where
        available (Linux) and falls back to ``spawn`` (macOS/Windows).
        Workers attach shared-memory segments by name, so both methods
        produce identical results; ``fork`` merely starts faster.
    reliability:
        Supervision policy for the worker pools: per-task timeout, retry
        budget/backoff after worker loss, and whether exhausted retries
        degrade to inline serial execution (bit-identical by the
        determinism contract above) instead of aborting the fit.
    """

    num_workers: int = 0
    num_shards: Optional[int] = None
    mp_context: Optional[str] = None
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError("num_shards must be >= 1 (or None)")
        if self.mp_context not in _START_METHODS:
            raise ValueError(
                f"unknown mp_context {self.mp_context!r}; valid: "
                f"{[m for m in _START_METHODS if m]} or None"
            )

    @property
    def enabled(self) -> bool:
        """True when the parallel layer is active (``num_workers >= 1``)."""
        return self.num_workers >= 1

    @property
    def shards(self) -> int:
        """The effective shard count of the plan."""
        if self.num_shards is not None:
            return self.num_shards
        return max(1, self.num_workers)

    def start_method(self) -> str:
        """The resolved multiprocessing start method."""
        if self.mp_context is not None:
            return self.mp_context
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
