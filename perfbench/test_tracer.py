"""Self-test of the benchmark's tracer.

Run from the root of the repository::

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Advances one tick per reading, so every span has a known duration."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_module(monkeypatch):
    """A module whose functions call each other through module globals."""
    module = types.ModuleType("perfbench_fake")

    def leaf(x):
        return x + 1

    def middle(x):
        return module.leaf(x) + module.leaf(x)

    def outer(x):
        return module.middle(x) * 2

    class Box:
        def method(self, x):
            return module.leaf(x)

        @classmethod
        def build(cls, x):
            return cls().method(x)

    module.leaf, module.middle, module.outer, module.Box = leaf, middle, outer, Box
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def test_children_nest_and_self_times_sum_to_wall(fake_module):
    tracer = Tracer(clock=FakeClock())
    assert tracer.wrap("perfbench_fake", "leaf", "leaf", aggregate=True)
    assert tracer.wrap("perfbench_fake", "middle", "middle")
    assert tracer.wrap("perfbench_fake", "Box.build", "build")
    for _ in range(3):
        with tracer.op("op"):
            assert fake_module.outer(1) == 8
            assert fake_module.Box.build(1) == 2
    tracer.uninstall()

    assert tracer.check() == []
    by_op = tracer.by_op()["op"]
    assert by_op["ops"] == 3
    assert sum(by_op["self_s"].values()) == pytest.approx(by_op["wall_s"])
    assert by_op["self_s"]["unattributed"] > 0
    by_name = tracer.by_name()
    # Two leaf calls under each middle, one under each build: merged per parent.
    assert by_name["leaf"]["calls"] == 9
    assert len([s for s in tracer.spans if s.name == "leaf"]) == 6
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end


def test_uninstall_restores_every_binding(fake_module):
    originals = (fake_module.leaf, fake_module.Box.__dict__["build"])
    tracer = Tracer()
    tracer.wrap("perfbench_fake", "leaf", "leaf")
    tracer.wrap("perfbench_fake", "Box.build", "build")
    assert fake_module.leaf is not originals[0]
    assert isinstance(fake_module.Box.__dict__["build"], classmethod)
    tracer.uninstall()
    assert (fake_module.leaf, fake_module.Box.__dict__["build"]) == originals


def test_calls_outside_an_operation_are_not_traced(fake_module):
    tracer = Tracer()
    tracer.wrap("perfbench_fake", "leaf", "leaf")
    assert fake_module.outer(1) == 8
    tracer.uninstall()
    assert tracer.spans == []


def test_iterate_times_each_next_and_counts(fake_module):
    tracer = Tracer(clock=FakeClock())
    with tracer.op("op"):
        items = list(tracer.iterate("next", [[1, 2], [3]], count=lambda item: {"n": len(item)}))
    assert items == [[1, 2], [3]]
    row = tracer.by_name()["next"]
    assert row["calls"] == 3  # two items plus the exhausting call
    assert row["counters"] == {"n": 3}
    assert tracer.check() == []


def test_missing_targets_are_skipped(fake_module):
    tracer = Tracer()
    assert not tracer.wrap("perfbench_no_such_module", "f", "f")
    assert not tracer.wrap("perfbench_fake", "gone", "gone")
    assert not tracer.wrap("perfbench_fake", "Nope.method", "nope")
    tracer.uninstall()
    assert tracer.spans == []


def test_check_reports_a_child_outside_its_parent(fake_module):
    tracer = Tracer(clock=FakeClock())
    tracer.wrap("perfbench_fake", "leaf", "leaf")
    with tracer.op("op"):
        fake_module.leaf(1)
    tracer.uninstall()
    tracer.spans[1].end = tracer.spans[0].end + 5
    assert any("outside its parent" in problem for problem in tracer.check())


def test_removed_layer_is_reported_absent_not_fatal(monkeypatch):
    word2vec = pytest.importorskip("repro.embeddings.word2vec")
    monkeypatch.delattr(word2vec, "segment_scatter_add")
    tracer = Tracer()
    absent = layers.install(tracer)
    tracer.uninstall()
    assert layers.SCATTER in absent
    _values, status = layers.derive(tracer, absent)
    assert status["embeddings.word2vec.scatter_s"] == "absent"
    assert status["embeddings.word2vec.pair_update_s"] == "idle"


def test_traced_fit_accounts_for_its_wall_time():
    pipeline = pytest.importorskip("repro.core.pipeline")
    from repro.core.config import TDMatchConfig
    from repro.datasets import ScenarioSize, generate_scenario

    scenario = generate_scenario("imdb_wt", ScenarioSize.tiny(), seed=3)
    tracer = Tracer()
    absent = layers.install(tracer)
    try:
        model = pipeline.TDMatch(TDMatchConfig.fast(), seed=3)
        with tracer.op("fit"):
            model.fit(scenario.first, scenario.second)
        with tracer.op("match"):
            model.match_result(k=5)
    finally:
        tracer.uninstall()
    assert absent == {}
    assert tracer.check() == []
    values, status = layers.derive(tracer, absent)
    for name in (layers.BUILD, layers.TRAIN, layers.PAIR_UPDATE, layers.SCATTER,
                 layers.WALK_NEXT, layers.RETRIEVE, layers.TO_RANKINGS):
        assert tracer.by_name()[name]["calls"] > 0, name
    fit = tracer.by_op()["fit"]
    assert sum(fit["self_s"].values()) == pytest.approx(fit["wall_s"])
    assert 0 < values["embeddings.word2vec.fit_share"] < 1
    assert values["embeddings.word2vec.pairs"] == model.model.stats.pairs
    assert values["graph.walk_engine.walks"] > 0
    assert status["graph.compression.compress_s"] == "idle"
