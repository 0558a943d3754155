"""Wall-clock timing utilities used by the execution-time experiments.

Table VII of the paper reports train and test times per method.  The
:class:`TimingRegistry` collects named measurements so the benchmark harness
can print the same rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Stopwatch:
    """A simple resettable stopwatch based on ``time.perf_counter``."""

    _start: Optional[float] = None
    _elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        if self._start is None:
            self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def reset(self) -> None:
        self._start = None
        self._elapsed = 0.0

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds, including a currently running interval."""
        running = 0.0
        if self._start is not None:
            running = time.perf_counter() - self._start
        return self._elapsed + running


@dataclass
class TimingRegistry:
    """Accumulates named timing measurements, in seconds.

    Only times live here.  Which engines ran, how much work they did and
    what went wrong are read from the pipeline's state by
    :meth:`repro.core.pipeline.TDMatch.report`, so they cannot drift from it.
    """

    records: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.records.setdefault(name, []).append(float(seconds))

    def total(self, name: str) -> float:
        return sum(self.records.get(name, []))

    def names(self) -> List[str]:
        return sorted(self.records)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def as_dict(self) -> Dict[str, float]:
        """Return total seconds per name."""
        return {name: self.total(name) for name in self.names()}

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """The full registry as a plain JSON-able dict.

        ``stages`` maps each measurement name to its total seconds and the
        individual samples (for benches that record best-of-N).
        """
        return {
            "stages": {
                name: {
                    "seconds": self.total(name),
                    "samples": list(self.records[name]),
                }
                for name in self.names()
            },
        }
