"""Layer spans: they wrap where callers look, change no result, and
come off again."""

import dataclasses

import pytest

import layers
from benchlib import SpanRecorder, fold


def _smoke():
    from repro.scenarios import shipped_scenarios

    return shipped_scenarios()["huddle-smoke"]


def _attribute(module, path):
    import importlib

    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_every_wrap_target_exists():
    for _name, module, path in layers.SCENARIO_LAYERS + layers.SERVE_LAYERS:
        assert callable(_attribute(module, path)), (module, path)


@pytest.mark.parametrize("regions", [1, 2])
def test_traced_run_matches_untraced_and_restores(regions):
    from repro.scenarios import ScenarioRunner

    scenario = dataclasses.replace(_smoke(), seed=3)
    plain = ScenarioRunner(scenario, regions=regions).run()
    originals = {(m, p): _attribute(m, p)
                 for _n, m, p in layers.SCENARIO_LAYERS}
    recorder = SpanRecorder()
    events = []
    patches = layers.install(recorder, layers.SCENARIO_LAYERS,
                             {"des.run": events.append})
    try:
        traced = ScenarioRunner(scenario, regions=regions).run()
    finally:
        patches.restore()
    assert {(m, p): _attribute(m, p)
            for _n, m, p in layers.SCENARIO_LAYERS} == originals
    assert traced.report.journal_digest == plain.report.journal_digest

    folded = fold(recorder.spans)
    assert folded.count("scenario.run") == 1
    for name in ("designer.design", "controller.tick", "linkmodel.goodput",
                 "linkmodel.frame_slot_count", "optics.gain",
                 "spatial.within", "mobility.position", "journal.record",
                 "journal.digest", "scenarios.compile", "scenarios.report"):
        assert folded.count(name) > 0, name
    # The journal records every entry through record() on one kernel;
    # sharded runs merge shards into a fresh journal instead.
    if regions == 1:
        assert folded.count("journal.record") == len(plain.result.journal)
    metrics = layers.scenario_metrics(recorder.spans, sum(events), 1,
                                      regions)
    assert metrics["des.events"] == sum(events) > 0
    assert (metrics["sharded.rounds"] > 0) == (regions > 1)
    assert 0.0 <= metrics["designer.miss_ratio"] <= 1.0
    layer_self = folded.self_total_s - folded.self_of("scenario.run")
    assert layer_self <= folded.root_s * (1 + 1e-9)
