"""Sharded parallel execution layer for the fit pipeline.

Two fit stages — compression's DAG-union sweep and the Word2Vec epoch
loop — shard across worker processes over shared-memory views of the
CSR/model arrays, behind the single :class:`ParallelConfig` switch
(``num_workers=0`` keeps everything serial).  Random walks always run the
serial CSR engine: sharding them lost to serial at every measured load.
See the module docstrings for the per-stage determinism contract.
"""

from repro.parallel.compression import parallel_grouped_dag_union
from repro.parallel.config import ParallelConfig
from repro.parallel.reliability import (
    ReliabilityConfig,
    ReliabilityEvent,
    WorkerFailureError,
    drain_events,
    record_event,
)
from repro.parallel.shm import SharedArray, ShmArena, WorkerPool, attached, shard_ranges
from repro.parallel.trainer import EpochShardTrainer

__all__ = [
    "ParallelConfig",
    "ReliabilityConfig",
    "ReliabilityEvent",
    "SharedArray",
    "ShmArena",
    "WorkerFailureError",
    "WorkerPool",
    "attached",
    "drain_events",
    "record_event",
    "EpochShardTrainer",
    "parallel_grouped_dag_union",
    "shard_ranges",
]
