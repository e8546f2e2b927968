"""Layer spans for the traced run, installed from benchmark-owned code.

Each entry of :data:`SCENARIO_LAYERS` and :data:`SERVE_LAYERS` names a
public function of one program layer and the attribute through which
its caller looks it up.  A module-level function that a caller imports
by name is patched where the caller reads it (``expected_goodput`` in
``repro.net.multicell``, ``compose`` in ``repro.core.ampdesign``); a
method is patched on its class.  The program is left untouched on disk:
:class:`Patches` swaps the attributes in and restores them.

Span names are the per-layer metric prefixes documented in
``perfbench/README.md``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from benchlib import Fold, Span, SpanRecorder, children_named, fold

#: (span name, module, attribute path) for the scenario workloads.
SCENARIO_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("scenario.run", "repro.scenarios.runner", "ScenarioRunner.run"),
    ("scenarios.compile", "repro.scenarios.runner", "compile_scenario"),
    ("scenarios.report", "repro.scenarios.runner", "build_report"),
    ("designer.design", "repro.core.ampdesign", "AmppmDesigner.design"),
    ("designer.compose", "repro.core.ampdesign", "compose"),
    ("controller.tick", "repro.lighting.controller",
     "SmartLightingController.tick"),
    ("linkmodel.goodput", "repro.net.multicell", "expected_goodput"),
    ("linkmodel.frame_slot_count", "repro.sim.linkmodel",
     "frame_slot_count"),
    ("interference.effective_slot_errors", "repro.net.multicell",
     "effective_slot_errors"),
    ("optics.gain", "repro.phy.optics", "OpticalFrontEnd.channel_gain"),
    ("spatial.within", "repro.net.spatial", "LuminaireIndex.within"),
    ("spatial.nearest", "repro.net.spatial", "LuminaireIndex.nearest"),
    ("mobility.position", "repro.net.mobility", "RandomWaypoint.position"),
    ("des.run", "repro.des.kernel", "EventScheduler.run"),
    ("journal.record", "repro.des.journal", "EventJournal.record"),
    ("journal.digest", "repro.des.journal", "EventJournal.digest"),
    ("sharded.run", "repro.net.sharded", "run_sharded"),
    ("sharded.remote_variance", "repro.net.sharded",
     "_ShardedRun.remote_variance"),
    ("sharded.merge", "repro.net.sharded", "merge_journals"),
)

#: Synchronous serve-process layers (the coalescer's ``submit`` is
#: asynchronous and is wrapped separately, in ``serve_launcher.py``).
SERVE_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("serve.parse", "repro.serve.server", "parse_request"),
    ("serve.encode", "repro.serve.server", "encode"),
    ("serve.flush", "repro.serve.coalescer", "AdaptCoalescer.flush"),
    ("serve.design", "repro.serve.server", "AdaptEngine.design"),
    ("designer.design", "repro.core.ampdesign", "AmppmDesigner.design"),
    ("designer.compose", "repro.core.ampdesign", "compose"),
)


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, module: str, path: str,
                make: Callable[[Any], Any]) -> None:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder,
            layers: tuple[tuple[str, str, str], ...],
            on_result: dict[str, Callable[[Any], None]] | None = None
            ) -> Patches:
    """Wrap every listed layer function with a span of its name.

    ``on_result`` maps a span name to a callback that receives each
    return value of that layer (the kernel's dispatch counts, say).
    """
    hooks = on_result or {}
    patches = Patches()
    for name, module, path in layers:
        patches.replace(module, path,
                        lambda fn, name=name: recorder.wrap(
                            name, fn, hooks.get(name)))
    return patches


# -- per-layer metrics -----------------------------------------------------

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
#: ``op`` is one workload operation: one ``ScenarioRunner.run()`` on the
#: scenario workloads, one answered adapt request on serve-ndjson.
PER_LAYER_UNITS: dict[str, str] = {
    "designer.calls": "1/op",
    "designer.compose_calls": "1/op",
    "designer.miss_ratio": "ratio",
    "designer.self_s": "s/op",
    "controller.ticks": "1/op",
    "controller.self_s": "s/op",
    "linkmodel.goodput_calls": "1/op",
    "linkmodel.goodput_s": "s/op",
    "linkmodel.frame_slot_count_s": "s/op",
    "interference.calls": "1/op",
    "interference.s": "s/op",
    "optics.gain_calls": "1/op",
    "optics.gain_s": "s/op",
    "spatial.query_calls": "1/op",
    "spatial.query_s": "s/op",
    "mobility.position_s": "s/op",
    "des.events": "1/op",
    "des.dispatch_self_s": "s/op",
    "journal.records": "1/op",
    "journal.record_s": "s/op",
    "journal.digest_s": "s/op",
    "sharded.rounds": "1/op",
    "sharded.remote_variance_s": "s/op",
    "sharded.merge_s": "s/op",
    "scenarios.compile_s": "s/op",
    "scenarios.report_s": "s/op",
    "serve.parse_s": "s/op",
    "serve.coalesce_wait_s": "s/op",
    "serve.batch_mean": "req/flush",
    "serve.design_s": "s/op",
    "serve.encode_s": "s/op",
    "serve.shed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
}


def designer_metrics(spans: list[Span], folded: Fold,
                     ops: int) -> dict[str, float]:
    """Designer counts, the miss ratio and the designer self time."""
    design_calls = folded.count("designer.design")
    composing = children_named(spans, "designer.design", "designer.compose")
    reached = sum(1 for n in composing.values() if n > 0)
    return {
        "designer.calls": design_calls / ops,
        "designer.compose_calls": folded.count("designer.compose") / ops,
        "designer.miss_ratio": (reached / design_calls
                                if design_calls else 0.0),
        "designer.self_s": (folded.self_of("designer.design")
                            + folded.self_of("designer.compose")) / ops,
    }


def scenario_metrics(spans: list[Span], events: int, runs: int,
                     regions: int) -> dict[str, float]:
    """Per-layer metrics of ``runs`` traced scenario runs, per run.

    ``events`` is the total the wrapped ``EventScheduler.run`` calls
    returned (the kernel's own dispatch count).  A sharded round runs
    each of the ``regions`` schedulers once, so rounds are the
    scheduler runs inside ``run_sharded`` divided by ``regions``.
    """
    folded = fold(spans)
    region_runs = sum(
        children_named(spans, "sharded.run", "des.run").values())
    out = designer_metrics(spans, folded, runs)
    out.update({
        "controller.ticks": folded.count("controller.tick") / runs,
        "controller.self_s": folded.self_of("controller.tick") / runs,
        "linkmodel.goodput_calls": folded.count("linkmodel.goodput") / runs,
        "linkmodel.goodput_s": folded.incl("linkmodel.goodput") / runs,
        "linkmodel.frame_slot_count_s":
            folded.incl("linkmodel.frame_slot_count") / runs,
        "interference.calls":
            folded.count("interference.effective_slot_errors") / runs,
        "interference.s":
            folded.incl("interference.effective_slot_errors") / runs,
        "optics.gain_calls": folded.count("optics.gain") / runs,
        "optics.gain_s": folded.incl("optics.gain") / runs,
        "spatial.query_calls": (folded.count("spatial.within")
                                + folded.count("spatial.nearest")) / runs,
        "spatial.query_s": (folded.incl("spatial.within")
                            + folded.incl("spatial.nearest")) / runs,
        "mobility.position_s": folded.incl("mobility.position") / runs,
        "des.events": events / runs,
        "des.dispatch_self_s": folded.self_of("des.run") / runs,
        "journal.records": folded.count("journal.record") / runs,
        "journal.record_s": folded.incl("journal.record") / runs,
        "journal.digest_s": folded.incl("journal.digest") / runs,
        "sharded.rounds": region_runs / regions / runs,
        "sharded.remote_variance_s":
            folded.incl("sharded.remote_variance") / runs,
        "sharded.merge_s": folded.incl("sharded.merge") / runs,
        "scenarios.compile_s": folded.incl("scenarios.compile") / runs,
        "scenarios.report_s": folded.incl("scenarios.report") / runs,
    })
    return out


def serve_metrics(spans: list[Span], account: dict) -> dict[str, float]:
    """Per-request metrics of the traced server process.

    ``account`` is the coalescer accounting the launcher wrote
    (requests submitted, non-empty flushes, requests they batched,
    summed coalescing wait).  ``trace.self_sum_frac`` divides the
    self times of the synchronous spans by the server's active wall
    time (first span start to last span end); one event-loop thread
    means they cannot overlap.
    """
    folded = fold(spans)
    ops = max(account["requests"], 1)
    out = designer_metrics(spans, folded, ops)
    out.update({
        "serve.parse_s": folded.incl("serve.parse") / ops,
        "serve.coalesce_wait_s": account["wait_s"] / ops,
        "serve.batch_mean": (account["batched"] / account["flushes"]
                             if account["flushes"] else 0.0),
        "serve.design_s": folded.incl("serve.design") / ops,
        "serve.encode_s": folded.incl("serve.encode") / ops,
    })
    attached = [s for s in spans if not s.detached]
    wall = (max(s.end for s in attached) - min(s.start for s in attached)
            if attached else 0.0)
    out["trace.self_sum_frac"] = folded.self_total_s / wall if wall else 0.0
    return out
